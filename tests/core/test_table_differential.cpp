// Differential test of the columnar Table against a naive
// row-of-vectors reference model: both are driven through identical
// randomized op sequences and must agree on every observable —
// contents, projections, selections, find_row, duplicate_on and both
// fingerprint families. The reference recomputes everything from
// scratch, so any dirty-tracking bug in the columnar caches (stale
// column fingerprint after set_value, key index surviving erase_rows,
// ...) shows up as a divergence.
#include "core/table.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/rng.hpp"

namespace maton::core {
namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

/// The pre-columnar store: a vector of materialized rows, no caches.
struct RefModel {
  Schema schema;
  std::vector<Row> rows;

  std::uint64_t column_fingerprint(std::size_t col) const {
    std::uint64_t h = kFnvOffset;
    for (const Row& r : rows) {
      h ^= r[col];
      h *= kFnvPrime;
    }
    return h;
  }

  std::uint64_t fingerprint() const {
    std::uint64_t h = kFnvOffset;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= kFnvPrime;
    };
    mix(schema.size());
    mix(rows.size());
    for (const Row& r : rows) {
      for (Value v : r) mix(v);
    }
    return h;
  }

  std::optional<std::size_t> find_row(const AttrSet& cols,
                                      std::span<const Value> key) const {
    for (std::size_t r = 0; r < rows.size(); ++r) {
      std::size_t k = 0;
      bool match = true;
      for (std::size_t c : cols) {
        if (rows[r][c] != key[k++]) {
          match = false;
          break;
        }
      }
      if (match) return r;
    }
    return std::nullopt;
  }

  Row key_of(const Row& r, const AttrSet& cols) const {
    Row key;
    for (std::size_t c : cols) key.push_back(r[c]);
    return key;
  }

  /// (first row with the key, row) for the first row that repeats a key.
  std::optional<std::pair<std::size_t, std::size_t>> duplicate_on(
      const AttrSet& cols) const {
    std::map<Row, std::size_t> first;
    for (std::size_t r = 0; r < rows.size(); ++r) {
      const auto [it, inserted] = first.emplace(key_of(rows[r], cols), r);
      if (!inserted) return std::pair{it->second, r};
    }
    return std::nullopt;
  }

  /// Distinct keys in first-occurrence order.
  std::vector<Row> project(const AttrSet& cols) const {
    std::set<Row> seen;
    std::vector<Row> out;
    for (const Row& r : rows) {
      Row key = key_of(r, cols);
      if (seen.insert(key).second) out.push_back(std::move(key));
    }
    return out;
  }

  std::size_t distinct_count(const AttrSet& cols) const {
    return project(cols).size();
  }

  std::vector<Row> select_eq(std::size_t col, Value v) const {
    std::vector<Row> out;
    for (const Row& r : rows) {
      if (r[col] == v) out.push_back(r);
    }
    return out;
  }
};

Schema make_schema(std::size_t cols) {
  Schema s;
  for (std::size_t c = 0; c + 1 < cols; ++c) {
    s.add_match("m" + std::to_string(c));
  }
  s.add_action("a");
  return s;
}

AttrSet random_subset(Rng& rng, std::size_t cols) {
  AttrSet set;
  do {
    for (std::size_t c = 0; c < cols; ++c) {
      if (rng.index(2) == 0) set.insert(c);
    }
  } while (set.empty());
  return set;
}

void check_observables(const Table& table, const RefModel& ref, Rng& rng) {
  ASSERT_EQ(table.num_rows(), ref.rows.size());
  ASSERT_EQ(table.fingerprint(), ref.fingerprint());
  const std::size_t cols = ref.schema.size();
  for (std::size_t c = 0; c < cols; ++c) {
    ASSERT_EQ(table.column_fingerprint(c), ref.column_fingerprint(c));
  }
  for (std::size_t r = 0; r < ref.rows.size(); ++r) {
    ASSERT_EQ(table.row(r), ref.rows[r]);
  }

  const AttrSet probe_cols = random_subset(rng, cols);
  ASSERT_EQ(table.duplicate_on(probe_cols), ref.duplicate_on(probe_cols));
  ASSERT_EQ(table.distinct_count(probe_cols),
            ref.distinct_count(probe_cols));

  // find_row: an existing key and a (likely) missing one.
  if (!ref.rows.empty()) {
    const Row& target = ref.rows[rng.index(ref.rows.size())];
    std::vector<Value> key;
    for (std::size_t c : probe_cols) key.push_back(target[c]);
    ASSERT_EQ(table.find_row(probe_cols, key),
              ref.find_row(probe_cols, key));
    key.back() ^= 0x1000;
    ASSERT_EQ(table.find_row(probe_cols, key),
              ref.find_row(probe_cols, key));
  }

  const Table proj = table.project(probe_cols);
  const std::vector<Row> ref_proj = ref.project(probe_cols);
  ASSERT_EQ(proj.num_rows(), ref_proj.size());
  for (std::size_t r = 0; r < ref_proj.size(); ++r) {
    ASSERT_EQ(proj.row(r), ref_proj[r]);
  }

  if (!ref.rows.empty()) {
    const std::size_t sel_col = rng.index(cols);
    const Value sel_val = ref.rows[rng.index(ref.rows.size())][sel_col];
    const Table sel = table.select_eq(sel_col, sel_val);
    const std::vector<Row> ref_sel = ref.select_eq(sel_col, sel_val);
    ASSERT_EQ(sel.num_rows(), ref_sel.size());
    for (std::size_t r = 0; r < ref_sel.size(); ++r) {
      ASSERT_EQ(sel.row(r), ref_sel[r]);
    }
  }
}

void run_differential(std::uint64_t seed) {
  Rng rng(seed);
  const std::size_t cols = 2 + rng.index(4);  // 2..5 columns
  Table table("diff", make_schema(cols));
  RefModel ref{make_schema(cols), {}};

  for (std::size_t step = 0; step < 400; ++step) {
    // Small value domain so duplicates, projections merges and probe
    // hits actually occur.
    const auto value = [&] { return static_cast<Value>(rng.index(7)); };
    switch (ref.rows.empty() ? 0 : rng.index(4)) {
      case 0: {  // add_row
        Row row;
        for (std::size_t c = 0; c < cols; ++c) row.push_back(value());
        table.add_row(row);
        ref.rows.push_back(std::move(row));
        break;
      }
      case 1: {  // set_value
        const std::size_t r = rng.index(ref.rows.size());
        const std::size_t c = rng.index(cols);
        const Value v = value();
        table.set_value(r, c, v);
        ref.rows[r][c] = v;
        break;
      }
      case 2: {  // erase_rows
        const std::size_t first = rng.index(ref.rows.size());
        const std::size_t count =
            1 + rng.index(std::min<std::size_t>(3, ref.rows.size() - first));
        table.erase_rows(first, count);
        ref.rows.erase(
            ref.rows.begin() + static_cast<std::ptrdiff_t>(first),
            ref.rows.begin() + static_cast<std::ptrdiff_t>(first + count));
        break;
      }
      default: {  // read-only probe step (warms caches between writes)
        const AttrSet probe = random_subset(rng, cols);
        const Row& target = ref.rows[rng.index(ref.rows.size())];
        std::vector<Value> key;
        for (std::size_t c : probe) key.push_back(target[c]);
        ASSERT_EQ(table.find_row(probe, key), ref.find_row(probe, key));
        break;
      }
    }
    if (step % 16 == 0 || step + 1 == 400) {
      check_observables(table, ref, rng);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  check_observables(table, ref, rng);
}

TEST(TableDifferential, Seed1) { run_differential(1); }
TEST(TableDifferential, Seed2) { run_differential(0xbeef); }
TEST(TableDifferential, Seed3) { run_differential(0x5ca1e); }
TEST(TableDifferential, Seed4) { run_differential(42424242); }

// The row set at scale, over both column representations: a wide column
// of per-row values spills to raw storage while the narrow ones stay
// interned. Two duplicate keys are planted: the first repeats row 1234
// (not row 0) at row 7000, the second repeats row 3000 at row 15000.
TEST(TableDifferential, LargeTableWithSpilledColumnAndPlantedDuplicates) {
  constexpr std::size_t kRows = 20000;
  const Schema schema = make_schema(4);  // m0, m1, m2 | a
  Table table("large", schema);
  RefModel ref{schema, {}};
  // Row r carries the match cells of row `key` (r itself unless planted).
  const auto row_of = [](std::size_t r, std::size_t key) -> Row {
    return {key % 97, key * 0x9e3779b97f4a7c15ULL, key % 13, r};
  };
  for (std::size_t r = 0; r < kRows; ++r) {
    Row row = row_of(r, r == 7000 ? 1234 : r == 15000 ? 3000 : r);
    table.add_row(row);
    ref.rows.push_back(std::move(row));
  }
  ASSERT_TRUE(table.column(0).interned());
  ASSERT_FALSE(table.column(1).interned());
  ASSERT_TRUE(table.column(2).interned());
  ASSERT_FALSE(table.column(3).interned());

  const AttrSet match = schema.match_set();
  ASSERT_EQ(table.duplicate_on(match),
            (std::optional<std::pair<std::size_t, std::size_t>>{{1234, 7000}}));
  EXPECT_FALSE(table.is_order_independent());
  const AttrSet probes[] = {match,          AttrSet{1},    AttrSet{0},
                            AttrSet{0, 2},  AttrSet{1, 3}, AttrSet{3},
                            schema.all()};
  for (const AttrSet& cols : probes) {
    SCOPED_TRACE(cols.to_string());
    ASSERT_EQ(table.duplicate_on(cols), ref.duplicate_on(cols));
    ASSERT_EQ(table.distinct_count(cols), ref.distinct_count(cols));
    const Table proj = table.project(cols);
    const std::vector<Row> ref_proj = ref.project(cols);
    ASSERT_EQ(proj.num_rows(), ref_proj.size());
    for (std::size_t r = 0; r < ref_proj.size(); ++r) {
      ASSERT_EQ(proj.row(r), ref_proj[r]);
    }
  }
  EXPECT_EQ(table.distinct_count(match), kRows - 2);
}

// Copies must carry content but not caches; mutating the copy must not
// disturb the original's caches (and vice versa).
TEST(TableDifferential, CopyDropsCachesButKeepsContent) {
  Schema s = make_schema(3);
  Table a("a", s);
  a.add_row(core::Row{1, 2, 3});
  a.add_row(core::Row{4, 5, 6});
  const std::uint64_t fp = a.fingerprint();
  const Value key[] = {4, 5};
  ASSERT_EQ(a.find_row(AttrSet{0, 1}, key), std::optional<std::size_t>{1});

  Table b = a;  // copy with warm caches on a
  EXPECT_EQ(b.fingerprint(), fp);
  b.set_value(1, 0, 7);
  EXPECT_NE(b.fingerprint(), fp);
  EXPECT_EQ(a.fingerprint(), fp);  // original untouched
  const Value new_key[] = {7, 5};
  EXPECT_EQ(b.find_row(AttrSet{0, 1}, new_key),
            std::optional<std::size_t>{1});
  EXPECT_EQ(a.find_row(AttrSet{0, 1}, key), std::optional<std::size_t>{1});
}

}  // namespace
}  // namespace maton::core

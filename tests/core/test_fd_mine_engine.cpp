// Tests for the parallel, cache-backed FD-mining engine: determinism
// across thread counts, PartitionCache hit/miss/invalidation semantics,
// ProductScratch arena reuse, the in-place fd_holds rewrite, and the
// wide-schema guard.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "core/fd_mine.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace maton::core {
namespace {

Schema schema_of_width(std::size_t k) {
  Schema s;
  for (std::size_t i = 0; i < k; ++i) {
    s.add_match("f" + std::to_string(i));
  }
  return s;
}

Table random_table(std::size_t rows, std::size_t cols, std::uint64_t domain,
                   std::uint64_t seed) {
  Table t("rand", schema_of_width(cols));
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    Row row;
    for (std::size_t c = 0; c < cols; ++c) {
      row.push_back(rng.uniform(0, domain));
    }
    t.add_row(std::move(row));
  }
  return t;
}

/// Canonical (sorted) view of an FD set for cross-miner comparisons.
std::set<std::pair<std::uint64_t, std::uint64_t>> canonical(const FdSet& fds) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Fd& fd : fds.fds()) {
    for (std::size_t a : fd.rhs) {
      out.insert({fd.lhs.raw(), AttrSet::single(a).raw()});
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Differential fuzz: parallel ≡ sequential ≡ naive, with and without cache.

struct FuzzCase {
  std::size_t rows;
  std::size_t cols;
  std::uint64_t seed;
};

class MinerEngineDifferential : public ::testing::TestWithParam<FuzzCase> {};

TEST_P(MinerEngineDifferential, ParallelSequentialNaiveAgree) {
  const FuzzCase& fc = GetParam();
  Rng rng(fc.seed);
  const std::uint64_t domain = 1 + rng.index(4);
  const Table t = random_table(fc.rows, fc.cols, domain, fc.seed * 77 + 1);

  const FdSet sequential = mine_fds_tane(t, {.threads = 0});
  const FdSet parallel4 = mine_fds_tane(t, {.threads = 4});
  const FdSet parallel8 = mine_fds_tane(t, {.threads = 8});

  // Bit-identical: same dependencies in the same order, not just the
  // same theory. This is the engine's determinism guarantee.
  EXPECT_EQ(sequential.fds(), parallel4.fds()) << t.to_string();
  EXPECT_EQ(sequential.fds(), parallel8.fds()) << t.to_string();

  // Cached runs (first call fills, second call serves) are identical too.
  tane::PartitionCache cache;
  const FdSet cached_fill = mine_fds_tane(t, {.threads = 2, .cache = &cache});
  const FdSet cached_hit = mine_fds_tane(t, {.threads = 2, .cache = &cache});
  EXPECT_EQ(sequential.fds(), cached_fill.fds()) << t.to_string();
  EXPECT_EQ(sequential.fds(), cached_hit.fds()) << t.to_string();

  // And all of them mine the same dependency set as the oracle.
  EXPECT_EQ(canonical(sequential), canonical(mine_fds_naive(t)))
      << t.to_string();
}

std::vector<FuzzCase> fuzz_cases() {
  std::vector<FuzzCase> cases;
  std::uint64_t seed = 1;
  for (const std::size_t rows : {0, 1, 16, 256}) {
    for (const std::size_t cols : {1, 4, 8}) {
      for (int rep = 0; rep < 4; ++rep) {
        cases.push_back({rows, cols, seed++});
      }
    }
  }
  return cases;  // 4 × 3 × 4 = 48 cases
}

INSTANTIATE_TEST_SUITE_P(Fuzz, MinerEngineDifferential,
                         ::testing::ValuesIn(fuzz_cases()));

TEST(MinerEngine, MaxLhsAgreesAcrossThreadCounts) {
  const Table t = random_table(64, 6, 2, 9);
  const FdSet seq = mine_fds_tane(t, {.max_lhs = 2, .threads = 0});
  const FdSet par = mine_fds_tane(t, {.max_lhs = 2, .threads = 8});
  EXPECT_EQ(seq.fds(), par.fds());
}

// ---------------------------------------------------------------------------
// PartitionCache.

TEST(PartitionCache, HitMissAndInvalidationOnRowMutation) {
  Table t = random_table(32, 4, 2, 5);
  tane::PartitionCache cache;

  (void)mine_fds_tane(t, {.cache = &cache});
  const auto cold = cache.stats();
  EXPECT_EQ(cold.hits, 0u);
  EXPECT_GT(cold.misses, 0u);
  EXPECT_GT(cache.size(), 0u);

  // Same table again: every partition lookup hits; no new entries.
  const std::size_t entries = cache.size();
  (void)mine_fds_tane(t, {.cache = &cache});
  const auto warm = cache.stats();
  EXPECT_EQ(warm.misses, cold.misses);
  EXPECT_EQ(warm.hits, cold.misses);  // one hit per formerly-missed key
  EXPECT_EQ(cache.size(), entries);

  // Mutating the table changes the column fingerprints: stale entries
  // stop being found and the mine repopulates under new keys.
  t.add_row(core::Row{0, 1, 0, 1});
  (void)mine_fds_tane(t, {.cache = &cache});
  const auto after = cache.stats();
  EXPECT_EQ(after.hits, warm.hits);  // nothing reusable
  EXPECT_GT(after.misses, warm.misses);
}

TEST(PartitionCache, UntouchedColumnsReuseAcrossMutatedTables) {
  const Table base = random_table(64, 4, 2, 6);
  tane::PartitionCache cache;
  (void)mine_fds_tane(base, {.cache = &cache});
  const auto cold = cache.stats();

  // Rebuild the table with only column 3 rewritten (a churn event).
  Table mutated("rand", base.schema());
  for (std::size_t r = 0; r < base.num_rows(); ++r) {
    Row row = base.row(r);
    row[3] = row[3] + 100;
    mutated.add_row(std::move(row));
  }
  (void)mine_fds_tane(mutated, {.cache = &cache});
  const auto warm = cache.stats();
  // Partitions over {0,1,2}-only subsets are reusable; anything
  // involving column 3 must re-miss.
  EXPECT_GT(warm.hits, cold.hits);
  EXPECT_GT(warm.misses, cold.misses);
}

TEST(PartitionCache, DirectFindPutAndClear) {
  tane::PartitionCache cache;
  EXPECT_EQ(cache.find(1, 2), nullptr);
  auto p = std::make_shared<const tane::Partition>();
  EXPECT_EQ(cache.put(1, 2, p), p);
  EXPECT_EQ(cache.find(1, 2), p);
  // First writer wins on duplicate keys.
  auto q = std::make_shared<const tane::Partition>();
  EXPECT_EQ(cache.put(1, 2, q), p);
  EXPECT_EQ(cache.size(), 1u);
  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.find(1, 2), nullptr);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST(PartitionCache, SubsetFingerprintTracksColumnContent) {
  const Table a = random_table(32, 3, 3, 11);
  Table b("other", a.schema());
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    Row row = a.row(r);
    row[2] = row[2] + 7;  // only column 2 differs
    b.add_row(std::move(row));
  }
  const auto fa = tane::column_fingerprints(a);
  const auto fb = tane::column_fingerprints(b);
  EXPECT_EQ(fa[0], fb[0]);
  EXPECT_EQ(fa[1], fb[1]);
  EXPECT_NE(fa[2], fb[2]);
  EXPECT_EQ(tane::subset_fingerprint(fa, a.num_rows(), AttrSet{0, 1}),
            tane::subset_fingerprint(fb, b.num_rows(), AttrSet{0, 1}));
  EXPECT_NE(tane::subset_fingerprint(fa, a.num_rows(), AttrSet{1, 2}),
            tane::subset_fingerprint(fb, b.num_rows(), AttrSet{1, 2}));
  // Table-level fingerprints differ, and add_row changes them.
  EXPECT_NE(a.fingerprint(), b.fingerprint());
  Table c = a;
  const std::uint64_t before = c.fingerprint();
  c.add_row(core::Row{1, 2, 3});
  EXPECT_NE(c.fingerprint(), before);
}

// ---------------------------------------------------------------------------
// ProductScratch arena.

TEST(ProductScratch, ReusedScratchMatchesFreshProducts) {
  const Table t = random_table(128, 6, 2, 13);
  std::vector<tane::Partition> singles;
  for (std::size_t c = 0; c < t.num_cols(); ++c) {
    singles.push_back(tane::partition_by_column(t, c));
  }
  tane::ProductScratch scratch;
  for (std::size_t a = 0; a < singles.size(); ++a) {
    for (std::size_t b = a + 1; b < singles.size(); ++b) {
      const auto fresh = tane::product(singles[a], singles[b], t.num_rows());
      const auto reused =
          tane::product(singles[a], singles[b], t.num_rows(), scratch);
      EXPECT_EQ(fresh.classes, reused.classes) << "cols " << a << "," << b;
    }
  }
}

TEST(ProductScratch, ScratchGrowsAcrossDifferentRowCounts) {
  tane::ProductScratch scratch;
  for (const std::size_t rows : {16, 64, 8, 256}) {
    const Table t = random_table(rows, 2, 2, rows);
    const auto p0 = tane::partition_by_column(t, 0);
    const auto p1 = tane::partition_by_column(t, 1);
    EXPECT_EQ(tane::product(p0, p1, rows).classes,
              tane::product(p0, p1, rows, scratch).classes);
  }
}

// ---------------------------------------------------------------------------
// fd_holds rewrite (satellite: no per-row RHS re-materialization).

TEST(FdHolds, DuplicateLhsKeysCompareRhsInPlace) {
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 5, 9});
  t.add_row(core::Row{1, 5, 9});  // duplicate LHS, equal RHS
  t.add_row(core::Row{2, 6, 9});
  EXPECT_TRUE(fd_holds(t, {AttrSet{0}, AttrSet{1, 2}}));
  t.add_row(core::Row{1, 5, 8});  // duplicate LHS, differing RHS
  EXPECT_FALSE(fd_holds(t, {AttrSet{0}, AttrSet{1, 2}}));
  EXPECT_TRUE(fd_holds(t, {AttrSet{0}, AttrSet{1}}));  // f1 still constant
}

TEST(FdHolds, GroupsSplitOnActualValuesNotHashes) {
  // Two-column LHS where per-column groups overlap heavily.
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 1, 10});
  t.add_row(core::Row{1, 2, 20});
  t.add_row(core::Row{2, 1, 30});
  t.add_row(core::Row{2, 2, 40});
  EXPECT_TRUE(fd_holds(t, {AttrSet{0, 1}, AttrSet{2}}));
  t.add_row(core::Row{2, 2, 41});
  EXPECT_FALSE(fd_holds(t, {AttrSet{0, 1}, AttrSet{2}}));
}

TEST(FdHolds, EmptyLhsMeansConstant) {
  Table t("t", schema_of_width(2));
  t.add_row(core::Row{1, 7});
  t.add_row(core::Row{2, 7});
  EXPECT_TRUE(fd_holds(t, {AttrSet{}, AttrSet{1}}));
  EXPECT_FALSE(fd_holds(t, {AttrSet{}, AttrSet{0}}));
  EXPECT_TRUE(fd_holds(t, {AttrSet{0}, AttrSet{0}}));  // trivial
}

TEST(FdHolds, RandomizedAgreementWithNaiveGrouping) {
  Rng rng(21);
  for (int rep = 0; rep < 30; ++rep) {
    const Table t = random_table(1 + rng.index(40), 2 + rng.index(3),
                                 1 + rng.index(3), 1000 + rep);
    const AttrSet all = t.schema().all();
    for (std::uint64_t lhs_mask = 0; lhs_mask < (1u << t.num_cols());
         ++lhs_mask) {
      const AttrSet lhs = AttrSet::from_raw(lhs_mask) & all;
      const AttrSet rhs = all - lhs;
      if (rhs.empty()) continue;
      // Oracle: group via distinct_count arithmetic — X → Y iff X and
      // X∪Y induce the same number of distinct combinations.
      const bool expected =
          t.distinct_count(lhs) == t.distinct_count(lhs | rhs);
      EXPECT_EQ(fd_holds(t, {lhs, rhs}), expected)
          << "lhs=" << lhs.to_string() << " table:\n"
          << t.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Wide-schema guard (satellite: Gosper's hack would shift by ≥ 64 bits).

TEST(MinerGuards, RejectSchemasWiderThanAttrSetCapacity) {
  // First line of defense: a 65th column cannot even be added to a
  // Schema (AttrSet::full would silently truncate past 64 bits).
  Schema wide;
  for (std::size_t i = 0; i < 64; ++i) {
    wide.add_match("w" + std::to_string(i));
  }
  EXPECT_THROW((void)wide.add_match("w64"), ContractViolation);
}

TEST(MinerGuards, SixtyFourColumnsStillMinable) {
  Schema s;
  for (std::size_t i = 0; i < 64; ++i) {
    s.add_match("c" + std::to_string(i));
  }
  Table t("exactly64", std::move(s));
  t.add_row(Row(64, 1));
  // max_lhs bounds the lattice so this stays fast; the point is that the
  // width guard admits exactly-64 and the enumeration does not overflow.
  const FdSet fds = mine_fds_tane(t, {.max_lhs = 1});
  EXPECT_TRUE(fds.implies({AttrSet{}, AttrSet{63}}));
  const FdSet naive = mine_fds_naive(t, {.max_lhs = 1});
  EXPECT_TRUE(naive.implies({AttrSet{}, AttrSet{63}}));
}

}  // namespace
}  // namespace maton::core

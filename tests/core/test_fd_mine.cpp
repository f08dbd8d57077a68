#include "core/fd_mine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

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

/// Canonical (sorted) view of an FD set for comparisons.
std::set<std::pair<std::uint64_t, std::uint64_t>> canonical(const FdSet& fds) {
  std::set<std::pair<std::uint64_t, std::uint64_t>> out;
  for (const Fd& fd : fds.fds()) {
    for (std::size_t a : fd.rhs) {
      out.insert({fd.lhs.raw(), AttrSet::single(a).raw()});
    }
  }
  return out;
}

TEST(MineNaive, SimpleChain) {
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{2, 10, 100});
  t.add_row(core::Row{3, 20, 200});
  const FdSet fds = mine_fds_naive(t);
  // f1 -> f2 and f2 -> f1 (both two-valued, aligned); f0 -> f1, f0 -> f2.
  EXPECT_TRUE(fds.implies({AttrSet{0}, AttrSet{1, 2}}));
  EXPECT_TRUE(fds.implies({AttrSet{1}, AttrSet{2}}));
  EXPECT_TRUE(fds.implies({AttrSet{2}, AttrSet{1}}));
  EXPECT_FALSE(fds.implies({AttrSet{1}, AttrSet{0}}));
}

TEST(MineNaive, MinimalityOfReportedLhs) {
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 1, 1});
  t.add_row(core::Row{1, 2, 2});
  t.add_row(core::Row{2, 1, 3});
  t.add_row(core::Row{2, 2, 4});
  // Only (f0,f1) -> f2 holds; no single column determines f2.
  const FdSet fds = mine_fds_naive(t);
  bool found_pair = false;
  for (const Fd& fd : fds.fds()) {
    if (fd.rhs == AttrSet{2}) {
      EXPECT_EQ(fd.lhs, (AttrSet{0, 1}));
      found_pair = true;
    }
  }
  EXPECT_TRUE(found_pair);
}

TEST(MineNaive, ConstantColumnReportedWithEmptyLhs) {
  Table t("t", schema_of_width(2));
  t.add_row(core::Row{1, 7});
  t.add_row(core::Row{2, 7});
  const FdSet fds = mine_fds_naive(t);
  bool found = false;
  for (const Fd& fd : fds.fds()) {
    if (fd.lhs.empty() && fd.rhs == AttrSet{1}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(MineNaive, MaxLhsBoundsSearch) {
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 1, 1});
  t.add_row(core::Row{1, 2, 2});
  t.add_row(core::Row{2, 1, 3});
  t.add_row(core::Row{2, 2, 4});
  const FdSet bounded = mine_fds_naive(t, {.max_lhs = 1});
  for (const Fd& fd : bounded.fds()) {
    EXPECT_LE(fd.lhs.size(), 1u);
  }
  EXPECT_FALSE(bounded.implies({AttrSet{0, 1}, AttrSet{2}}));
}

TEST(TanePartition, SingleColumn) {
  Table t("t", schema_of_width(2));
  t.add_row(core::Row{1, 1});
  t.add_row(core::Row{1, 2});
  t.add_row(core::Row{2, 3});
  t.add_row(core::Row{1, 3});
  const auto p0 = tane::partition_by_column(t, 0);
  ASSERT_EQ(p0.classes.size(), 1u);  // {0,1,3}; singleton {2} stripped
  EXPECT_EQ(p0.classes[0], (std::vector<std::uint32_t>{0, 1, 3}));
  EXPECT_EQ(p0.covered(), 3u);
  EXPECT_EQ(p0.error(), 2u);

  const auto p1 = tane::partition_by_column(t, 1);
  ASSERT_EQ(p1.classes.size(), 1u);  // rows 2,3 share value 3
  EXPECT_EQ(p1.classes[0], (std::vector<std::uint32_t>{2, 3}));
}

TEST(TanePartition, ProductRefines) {
  Table t("t", schema_of_width(2));
  t.add_row(core::Row{1, 5});
  t.add_row(core::Row{1, 5});
  t.add_row(core::Row{1, 6});
  t.add_row(core::Row{2, 6});
  const auto p0 = tane::partition_by_column(t, 0);
  const auto p1 = tane::partition_by_column(t, 1);
  const auto prod = tane::product(p0, p1, t.num_rows());
  // Classes of (f0,f1): {0,1} only — (1,6) and (2,6) are singletons.
  ASSERT_EQ(prod.classes.size(), 1u);
  EXPECT_EQ(prod.classes[0], (std::vector<std::uint32_t>{0, 1}));
  EXPECT_TRUE(tane::Partition{}.is_key_partition());
}

TEST(TaneMine, AgreesWithNaiveOnChain) {
  Table t("t", schema_of_width(3));
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{2, 10, 100});
  t.add_row(core::Row{3, 20, 200});
  EXPECT_EQ(canonical(mine_fds_tane(t)), canonical(mine_fds_naive(t)));
}

TEST(TaneMine, EmptyAndSingleRowTables) {
  Table empty("e", schema_of_width(3));
  const FdSet none = mine_fds_tane(empty);
  // Every column is (vacuously) constant.
  for (std::size_t c = 0; c < 3; ++c) {
    EXPECT_TRUE(none.implies({AttrSet{}, AttrSet::single(c)}));
  }
  Table one("o", schema_of_width(3));
  one.add_row(core::Row{1, 2, 3});
  const FdSet single = mine_fds_tane(one);
  EXPECT_TRUE(single.implies({AttrSet{}, AttrSet{0, 1, 2}}));
}

// The central property test: on random tables the lattice miner and the
// exhaustive miner must induce the same dependency theory.
class MinerAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(MinerAgreement, TaneEqualsNaiveOnRandomTables) {
  Rng rng(GetParam());
  const std::size_t cols = 2 + rng.index(4);       // 2..5 columns
  const std::size_t rows = 1 + rng.index(24);      // 1..24 rows
  const std::size_t domain = 1 + rng.index(4);     // small → many FDs

  Table t("rand", schema_of_width(cols));
  for (std::size_t r = 0; r < rows; ++r) {
    Row row;
    for (std::size_t c = 0; c < cols; ++c) {
      row.push_back(rng.uniform(0, domain));
    }
    t.add_row(std::move(row));
  }

  const auto naive = canonical(mine_fds_naive(t));
  const auto lattice = canonical(mine_fds_tane(t));
  EXPECT_EQ(naive, lattice) << "table:\n" << t.to_string();
}

INSTANTIATE_TEST_SUITE_P(RandomTables, MinerAgreement,
                         ::testing::Range<std::uint64_t>(1, 41));

TEST(TaneMine, MaxLhsBound) {
  Table t("t", schema_of_width(4));
  Rng rng(7);
  for (int r = 0; r < 16; ++r) {
    t.add_row(core::Row{rng.uniform(0, 2), rng.uniform(0, 2), rng.uniform(0, 2),
               rng.uniform(0, 2)});
  }
  const FdSet bounded = mine_fds_tane(t, {.max_lhs = 1});
  for (const Fd& fd : bounded.fds()) {
    EXPECT_LE(fd.lhs.size(), 1u);
  }
}

}  // namespace
}  // namespace maton::core

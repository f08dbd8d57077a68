#include "core/keys.hpp"

#include <gtest/gtest.h>

#include "core/fd_mine.hpp"
#include "util/rng.hpp"

namespace maton::core {
namespace {

TEST(CandidateKeys, SingleKeyFromCoreAttributes) {
  // a -> b, a -> c: a is never derived, and alone reaches everything.
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{0}, AttrSet{2});
  const auto keys = candidate_keys(fds, AttrSet::full(3));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], AttrSet{0});
}

TEST(CandidateKeys, MultipleKeys) {
  // a <-> b, a -> c: both {a} and {b} are keys.
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{1}, AttrSet{0});
  fds.add(AttrSet{0}, AttrSet{2});
  const auto keys = candidate_keys(fds, AttrSet::full(3));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], AttrSet{0});
  EXPECT_EQ(keys[1], AttrSet{1});
}

TEST(CandidateKeys, CompositeKey) {
  // (a,b) -> c and nothing else: the only key is {a,b}.
  FdSet fds;
  fds.add(AttrSet{0, 1}, AttrSet{2});
  const auto keys = candidate_keys(fds, AttrSet::full(3));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], (AttrSet{0, 1}));
}

TEST(CandidateKeys, NoFdsMeansAllAttributesForTheKey) {
  const auto keys = candidate_keys(FdSet{}, AttrSet::full(3));
  ASSERT_EQ(keys.size(), 1u);
  EXPECT_EQ(keys[0], AttrSet::full(3));
}

TEST(CandidateKeys, DerivedAttributeStillNeededInSomeKey) {
  // ab -> c, c -> b: keys are {a,b} and {a,c}.
  FdSet fds;
  fds.add(AttrSet{0, 1}, AttrSet{2});
  fds.add(AttrSet{2}, AttrSet{1});
  const auto keys = candidate_keys(fds, AttrSet::full(3));
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], (AttrSet{0, 1}));
  EXPECT_EQ(keys[1], (AttrSet{0, 2}));
}

TEST(CandidateKeys, FromTableInstance) {
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_action("c");
  Table t("t", s);
  t.add_row(core::Row{1, 1, 9});
  t.add_row(core::Row{1, 2, 9});
  t.add_row(core::Row{2, 1, 8});
  // (a,b) identifies rows; instance also has a -> c (1→9, 2→8) and
  // c -> a.
  const auto keys = candidate_keys(t);
  EXPECT_FALSE(keys.empty());
  for (const AttrSet& k : keys) {
    // Every reported key must actually be a superkey of the instance.
    EXPECT_TRUE(t.unique_on(k)) << k.to_string();
  }
}

TEST(PrimeAttributes, UnionOfKeys) {
  const std::vector<AttrSet> keys = {AttrSet{0, 1}, AttrSet{0, 2}};
  EXPECT_EQ(prime_attributes(keys), (AttrSet{0, 1, 2}));
  EXPECT_EQ(prime_attributes({}), AttrSet{});
}

// Property: every reported key is a minimal superkey, and all keys are
// incomparable.
class KeyProperties : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(KeyProperties, KeysAreMinimalSuperkeysAndIncomparable) {
  Rng rng(GetParam());
  const std::size_t cols = 2 + rng.index(4);
  Table t("rand", [&] {
    Schema s;
    for (std::size_t i = 0; i < cols; ++i) s.add_match("f" + std::to_string(i));
    return s;
  }());
  const std::size_t rows = 1 + rng.index(20);
  for (std::size_t r = 0; r < rows; ++r) {
    Row row;
    for (std::size_t c = 0; c < cols; ++c) row.push_back(rng.uniform(0, 3));
    t.add_row(std::move(row));
  }

  const FdSet fds = mine_fds_tane(t);
  const auto keys = candidate_keys(fds, t.schema().all());
  ASSERT_FALSE(keys.empty());
  for (std::size_t i = 0; i < keys.size(); ++i) {
    EXPECT_TRUE(fds.is_superkey(keys[i], t.schema().all()));
    // Minimality: removing any one attribute breaks the superkey property.
    for (std::size_t a : keys[i]) {
      AttrSet smaller = keys[i];
      smaller.erase(a);
      EXPECT_FALSE(fds.is_superkey(smaller, t.schema().all()))
          << "non-minimal key " << keys[i].to_string();
    }
    for (std::size_t j = 0; j < keys.size(); ++j) {
      if (i != j) {
        EXPECT_FALSE(keys[i].subset_of(keys[j]));
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTables, KeyProperties,
                         ::testing::Range<std::uint64_t>(100, 125));

}  // namespace
}  // namespace maton::core

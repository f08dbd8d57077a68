#include "core/fd.hpp"

#include <gtest/gtest.h>

namespace maton::core {
namespace {

Schema abc_schema() {
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_action("c");
  s.add_action("d");
  return s;
}

TEST(Fd, Trivial) {
  EXPECT_TRUE((Fd{AttrSet{0, 1}, AttrSet{1}}).trivial());
  EXPECT_FALSE((Fd{AttrSet{0}, AttrSet{1}}).trivial());
  EXPECT_TRUE((Fd{AttrSet{0}, AttrSet{}}).trivial());
}

TEST(Fd, ToString) {
  const Schema s = abc_schema();
  EXPECT_EQ(to_string(Fd{AttrSet{0, 1}, AttrSet{2}}, s), "a, b -> c");
}

TEST(FdHolds, DetectsViolationsAndHolds) {
  Table t("t", abc_schema());
  t.add_row(core::Row{1, 1, 7, 0});
  t.add_row(core::Row{1, 2, 7, 1});
  t.add_row(core::Row{2, 1, 8, 0});
  // a -> c holds (1→7, 2→8); a -> b does not (1 maps to both 1 and 2).
  EXPECT_TRUE(fd_holds(t, {AttrSet{0}, AttrSet{2}}));
  EXPECT_FALSE(fd_holds(t, {AttrSet{0}, AttrSet{1}}));
  // (a,b) is the key, so it determines everything.
  EXPECT_TRUE(fd_holds(t, {AttrSet{0, 1}, AttrSet{2, 3}}));
  // Empty LHS: holds only for constant columns.
  EXPECT_FALSE(fd_holds(t, {AttrSet{}, AttrSet{2}}));
  Table c("c", abc_schema());
  c.add_row(core::Row{1, 1, 5, 0});
  c.add_row(core::Row{2, 2, 5, 1});
  EXPECT_TRUE(fd_holds(c, {AttrSet{}, AttrSet{2}}));
}

TEST(FdHolds, EmptyTableSatisfiesEverything) {
  Table t("t", abc_schema());
  EXPECT_TRUE(fd_holds(t, {AttrSet{0}, AttrSet{1, 2, 3}}));
  EXPECT_TRUE(fd_holds(t, {AttrSet{}, AttrSet{0}}));
}

TEST(FdSet, ClosureFollowsChains) {
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{1}, AttrSet{2});
  fds.add(AttrSet{1, 2}, AttrSet{3});
  EXPECT_EQ(fds.closure(AttrSet{0}), (AttrSet{0, 1, 2, 3}));
  EXPECT_EQ(fds.closure(AttrSet{2}), AttrSet{2});
  EXPECT_EQ(fds.closure(AttrSet{}), AttrSet{});
}

TEST(FdSet, ImpliesAndSuperkey) {
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{1}, AttrSet{2});
  EXPECT_TRUE(fds.implies({AttrSet{0}, AttrSet{2}}));
  EXPECT_FALSE(fds.implies({AttrSet{2}, AttrSet{0}}));
  EXPECT_TRUE(fds.implies({AttrSet{0, 2}, AttrSet{2}}));  // trivial
  EXPECT_TRUE(fds.is_superkey(AttrSet{0}, AttrSet{0, 1, 2}));
  EXPECT_FALSE(fds.is_superkey(AttrSet{1}, AttrSet{0, 1, 2}));
}

TEST(FdSet, MinimalCoverSplitsAndShrinks) {
  FdSet fds;
  // a -> bc with a redundant extra attribute on the left of a second FD.
  fds.add(AttrSet{0}, AttrSet{1, 2});
  fds.add(AttrSet{0, 1}, AttrSet{3});  // b is extraneous given a -> b
  const FdSet cover = fds.minimal_cover();
  for (const Fd& fd : cover.fds()) {
    EXPECT_EQ(fd.rhs.size(), 1u) << "cover RHS must be singleton";
  }
  EXPECT_TRUE(cover.implies({AttrSet{0}, AttrSet{3}}));
  EXPECT_TRUE(cover.equivalent_to(fds));
  // The shrunken a -> d must be present (lhs {0}, not {0,1}).
  bool found = false;
  for (const Fd& fd : cover.fds()) {
    if (fd.lhs == AttrSet{0} && fd.rhs == AttrSet{3}) found = true;
  }
  EXPECT_TRUE(found);
}

TEST(FdSet, MinimalCoverDropsRedundant) {
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{1}, AttrSet{2});
  fds.add(AttrSet{0}, AttrSet{2});  // implied transitively
  const FdSet cover = fds.minimal_cover();
  EXPECT_EQ(cover.size(), 2u);
  EXPECT_TRUE(cover.equivalent_to(fds));
}

TEST(FdSet, MinimalCoverDropsDuplicates) {
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{0}, AttrSet{1});
  EXPECT_EQ(fds.minimal_cover().size(), 1u);
}

TEST(FdSet, EquivalentToIsSymmetricallyChecked) {
  FdSet a;
  a.add(AttrSet{0}, AttrSet{1});
  FdSet b;
  b.add(AttrSet{0}, AttrSet{1});
  b.add(AttrSet{1}, AttrSet{2});
  EXPECT_FALSE(a.equivalent_to(b));
  EXPECT_FALSE(b.equivalent_to(a));
  a.add(AttrSet{1}, AttrSet{2});
  EXPECT_TRUE(a.equivalent_to(b));
}

TEST(FdSet, ProjectKeepsOnlyInScopeDependencies) {
  FdSet fds;
  fds.add(AttrSet{0}, AttrSet{1});
  fds.add(AttrSet{1}, AttrSet{2});
  // Project away attribute 1: transitive a -> c must survive.
  const FdSet proj = fds.project(AttrSet{0, 2});
  EXPECT_TRUE(proj.implies({AttrSet{0}, AttrSet{2}}));
  for (const Fd& fd : proj.fds()) {
    EXPECT_TRUE(fd.lhs.subset_of(AttrSet{0, 2}));
    EXPECT_TRUE(fd.rhs.subset_of(AttrSet{0, 2}));
  }
}

}  // namespace
}  // namespace maton::core

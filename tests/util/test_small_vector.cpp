#include "util/small_vector.hpp"

#include <gtest/gtest.h>

namespace maton::util {
namespace {

TEST(SmallVector, InlineUpToCapacity) {
  SmallVector<int, 4> v;
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), 4u);
  for (int i = 0; i < 4; ++i) v.push_back(i);
  EXPECT_EQ(v.size(), 4u);
  EXPECT_EQ(v.capacity(), 4u);  // still inline
  for (int i = 0; i < 4; ++i) EXPECT_EQ(v[i], i);
}

TEST(SmallVector, SpillsToHeapPreservingContents) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 100; ++i) v.push_back(i * 3);
  EXPECT_EQ(v.size(), 100u);
  EXPECT_GE(v.capacity(), 100u);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(v[i], i * 3);
}

TEST(SmallVector, ClearKeepsCapacityAndAllowsReuse) {
  SmallVector<int, 2> v;
  for (int i = 0; i < 20; ++i) v.push_back(i);
  const std::size_t grown = v.capacity();
  v.clear();
  EXPECT_TRUE(v.empty());
  EXPECT_EQ(v.capacity(), grown);
  v.push_back(7);
  EXPECT_EQ(v.size(), 1u);
  EXPECT_EQ(v[0], 7);
}

TEST(SmallVector, SpanAndIterationSeeAllElements) {
  SmallVector<int, 3> v;
  for (int i = 0; i < 5; ++i) v.push_back(i);
  int sum = 0;
  for (const int x : v) sum += x;
  EXPECT_EQ(sum, 10);
  const auto s = v.span();
  ASSERT_EQ(s.size(), 5u);
  EXPECT_EQ(s[4], 4);
}

TEST(SmallVector, CopyIsDeep) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 10; ++i) a.push_back(i);
  SmallVector<int, 2> b(a);
  a.clear();
  a.push_back(99);
  ASSERT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 9);
  SmallVector<int, 2> c;
  c = b;
  EXPECT_EQ(c.size(), 10u);
  EXPECT_EQ(c[0], 0);
}

TEST(SmallVector, MovingASpilledVectorTakesItsBuffer) {
  SmallVector<int, 2> a;
  for (int i = 0; i < 10; ++i) a.push_back(i);
  const int* buffer = a.data();
  SmallVector<int, 2> b(std::move(a));
  // The heap buffer changed hands: no allocation, no element copies.
  EXPECT_EQ(b.data(), buffer);
  ASSERT_EQ(b.size(), 10u);
  EXPECT_EQ(b[9], 9);
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(a.capacity(), 2u);

  SmallVector<int, 2> c = {7};
  c = std::move(b);
  EXPECT_EQ(c.data(), buffer);
  EXPECT_EQ(c.size(), 10u);
  EXPECT_TRUE(b.empty());  // NOLINT(bugprone-use-after-move)
  a.push_back(1);  // a moved-from vector is usable
  EXPECT_EQ(a.size(), 1u);
}

TEST(SmallVector, MovingAnInlineVectorCopiesItsElements) {
  SmallVector<int, 4> a = {1, 2, 3};
  SmallVector<int, 4> b(std::move(a));
  EXPECT_EQ(b, (SmallVector<int, 4>{1, 2, 3}));
  EXPECT_TRUE(a.empty());  // NOLINT(bugprone-use-after-move)
  // Into a spilled target: the target keeps its own buffer.
  SmallVector<int, 4> c;
  for (int i = 0; i < 9; ++i) c.push_back(i);
  const int* buffer = c.data();
  c = std::move(b);
  EXPECT_EQ(c.data(), buffer);
  EXPECT_EQ(c, (SmallVector<int, 4>{1, 2, 3}));
}

TEST(SmallVector, BracedListsEqualityAndResize) {
  const SmallVector<int, 2> a = {1, 2, 3};
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.front(), 1);
  EXPECT_EQ(a.back(), 3);
  EXPECT_EQ(a, (SmallVector<int, 2>{1, 2, 3}));
  EXPECT_NE(a, (SmallVector<int, 2>{1, 2}));
  EXPECT_NE(a, (SmallVector<int, 2>{1, 2, 4}));
  SmallVector<int, 2> b = a;
  b.resize(1);
  EXPECT_EQ(b, (SmallVector<int, 2>{1}));
  b.resize(4);
  EXPECT_EQ(b, (SmallVector<int, 2>{1, 0, 0, 0}));
  b.assign(a);
  EXPECT_EQ(b, a);
}

}  // namespace
}  // namespace maton::util

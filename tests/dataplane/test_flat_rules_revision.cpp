// dp::FlatRules content revisions: every constructor and mutator draws a
// revision no FlatRules carried before, copies share the revision of what
// they copied, a moved-from object is left empty under a fresh one, const
// lookups leave it alone, and threads building tables at once never draw
// the same revision.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "dataplane/program.hpp"

namespace maton::dp {
namespace {

Rule route(std::uint64_t dst, std::uint32_t priority, std::uint64_t out) {
  Rule rule;
  rule.priority = priority;
  rule.matches.push_back({FieldId::kIpDst, dst, 0xffffffffu});
  rule.actions.push_back({Action::Kind::kOutput, FieldId::kMeta0, out});
  return rule;
}

FlatRules sample() {
  return FlatRules({route(1, 30, 1), route(2, 20, 2), route(3, 10, 3)});
}

/// Applies `mutate` to `rules` and expects a revision not seen before.
template <typename Mutate>
void expect_fresh(FlatRules& rules, std::set<std::uint64_t>& seen,
                  Mutate&& mutate) {
  mutate(rules);
  EXPECT_NE(rules.revision(), 0u);
  EXPECT_TRUE(seen.insert(rules.revision()).second);
}

TEST(FlatRulesRevision, EachMutatorDrawsAFreshRevision) {
  FlatRules rules = sample();
  std::set<std::uint64_t> seen{rules.revision()};
  const Rule extra = route(4, 25, 4);
  const FlatRules other = sample();
  const auto check = [&](const char* what, auto&& mutate) {
    SCOPED_TRACE(what);
    expect_fresh(rules, seen, mutate);
  };
  check("push_back", [&](FlatRules& r) { r.push_back(extra); });
  check("push_back view", [&](FlatRules& r) { r.push_back(other[1]); });
  check("replace", [&](FlatRules& r) { r.replace(0, route(9, 30, 9)); });
  check("replace view", [&](FlatRules& r) { r.replace(0, other[2]); });
  check("insert", [&](FlatRules& r) { r.insert(1, route(5, 20, 5)); });
  check("insert_sorted", [&](FlatRules& r) {
    (void)r.insert_sorted(route(6, 15, 6));
  });
  check("erase", [&](FlatRules& r) { r.erase(0); });
  check("erase positions", [&](FlatRules& r) {
    const std::vector<std::size_t> positions{0, 2};
    r.erase(positions);
  });
  check("reposition", [&](FlatRules& r) {
    r.replace(r.size() - 1, route(7, 99, 7));
    seen.insert(r.revision());
    EXPECT_EQ(r.reposition(r.size() - 1), 0u);
  });
  check("reposition in place", [&](FlatRules& r) { (void)r.reposition(0); });
  check("stable_sort_by_priority",
        [&](FlatRules& r) { r.stable_sort_by_priority(); });
  check("clear", [&](FlatRules& r) { r.clear(); });
}

TEST(FlatRulesRevision, ConstructorsDrawDistinctRevisions) {
  const FlatRules empty_a;
  const FlatRules empty_b;
  const FlatRules a = sample();
  const FlatRules b = sample();
  const std::set<std::uint64_t> revisions{empty_a.revision(),
                                          empty_b.revision(), a.revision(),
                                          b.revision()};
  EXPECT_EQ(revisions.size(), 4u);
  EXPECT_EQ(revisions.count(0), 0u);
  // Equality is logical: equal rules built apart compare equal.
  EXPECT_TRUE(a == b);
  EXPECT_TRUE(empty_a == empty_b);
}

TEST(FlatRulesRevision, CopiesShareTheRevision) {
  const FlatRules original = sample();
  const FlatRules copy(original);  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.revision(), original.revision());
  FlatRules assigned;
  assigned = original;
  EXPECT_EQ(assigned.revision(), original.revision());

  // Through the containers a program is made of.
  TableSpec table{.name = "t", .rules = original};
  EXPECT_EQ(table.rules.revision(), original.revision());
  Program program;
  program.tables.push_back(table);
  const Program program_copy = program;
  EXPECT_EQ(program_copy.tables[0].rules.revision(), original.revision());

  // Mutating the copy leaves the original's revision (and rules) alone.
  assigned.replace(0, route(8, 30, 8));
  EXPECT_NE(assigned.revision(), original.revision());
  EXPECT_TRUE(original == sample());
}

TEST(FlatRulesRevision, MoveLeavesAnEmptySourceUnderAFreshRevision) {
  FlatRules source = sample();
  source.build_match_index();
  const std::uint64_t revision = source.revision();

  FlatRules moved(std::move(source));
  EXPECT_EQ(moved.revision(), revision);
  EXPECT_TRUE(moved == sample());
  // NOLINTBEGIN(bugprone-use-after-move): the moved-from state is the
  // subject of the test.
  EXPECT_NE(source.revision(), revision);
  EXPECT_TRUE(source.empty());
  EXPECT_EQ(source.find_by_match(route(1, 0, 0).matches), FlatRules::kNpos);

  FlatRules target = sample();
  const std::uint64_t before = moved.revision();
  target = std::move(moved);
  EXPECT_EQ(target.revision(), before);
  EXPECT_NE(moved.revision(), before);
  EXPECT_TRUE(moved.empty());
  // A moved-from object is usable.
  moved.push_back(route(1, 1, 1));
  EXPECT_EQ(moved.size(), 1u);
  EXPECT_EQ(moved.find_by_match(route(1, 1, 1).matches), 0u);
  // NOLINTEND(bugprone-use-after-move)
}

TEST(FlatRulesRevision, ConstLookupsKeepTheRevision) {
  FlatRules rules = sample();
  const std::uint64_t revision = rules.revision();
  const FlatRules& view = rules;
  view.build_match_index();
  EXPECT_EQ(view.find_by_match(route(2, 0, 0).matches), 1u);
  EXPECT_EQ(view.find_by_match(route(42, 0, 0).matches), FlatRules::kNpos);
  (void)view.memory_bytes();
  for (const RuleView rule : view) (void)rule.priority;
  EXPECT_TRUE(view == sample());
  EXPECT_EQ(rules.revision(), revision);
}

TEST(FlatRulesRevision, ConcurrentBuildsDrawDistinctRevisions) {
  // Enough draws per thread to claim more than one block of the shared
  // sequence.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRules = 70000;
  std::vector<std::vector<std::uint64_t>> observed(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([t, &observed] {
      std::vector<std::uint64_t>& mine = observed[t];
      mine.reserve(kRules + 8);
      FlatRules rules;
      mine.push_back(rules.revision());
      for (std::size_t i = 0; i < kRules; ++i) {
        rules.push_back(route(i, static_cast<std::uint32_t>(i % 7), t));
        mine.push_back(rules.revision());
      }
      rules.replace(0, route(1, 3, t));
      mine.push_back(rules.revision());
      rules.stable_sort_by_priority();
      mine.push_back(rules.revision());
      rules.erase(0);
      mine.push_back(rules.revision());
      FlatRules copy = rules;
      copy.clear();
      mine.push_back(copy.revision());
    });
  }
  for (std::thread& thread : threads) thread.join();
  std::vector<std::uint64_t> all;
  for (const auto& mine : observed) all.insert(all.end(), mine.begin(), mine.end());
  std::sort(all.begin(), all.end());
  EXPECT_EQ(std::adjacent_find(all.begin(), all.end()), all.end());
  EXPECT_NE(all.front(), 0u);
}

}  // namespace
}  // namespace maton::dp

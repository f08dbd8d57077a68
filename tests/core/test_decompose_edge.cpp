// Edge cases of the decomposition framework beyond the paper's figures:
// action → action dependencies whose Y includes match fields that are
// nevertheless determinable, multi-attribute LHS, repeated splicing, and
// randomized validity sweeps (decompose either succeeds equivalently or
// rejects — never silently corrupts).
#include <gtest/gtest.h>

#include <set>

#include "core/decompose.hpp"
#include "core/equivalence.hpp"
#include "core/fd_mine.hpp"
#include "util/rng.hpp"

namespace maton::core {
namespace {

TEST(DecomposeEdge, ActionLhsWithDeterminedMatchRhsCanBeValid) {
  // T(a, b | c) with c → b and {a} a key: the residual stage (match a,
  // emit group) is order-independent, and the second stage re-verifies b
  // next to the group tag — a *valid* action→match decomposition,
  // showing Fig. 3's rejection is about structure, not a blanket rule.
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_action("c");
  Table t("t", std::move(s));
  t.add_row(core::Row{1, 10, 100});
  t.add_row(core::Row{2, 20, 200});
  t.add_row(core::Row{3, 10, 100});
  const Fd fd{AttrSet{2}, AttrSet{1}};  // c -> b, action -> match
  ASSERT_TRUE(fd_holds(t, fd));

  const auto dec = decompose_on_fd(t, fd, {JoinKind::kMetadata, "meta.t"});
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
  const auto eq = check_equivalence(t, dec.value().pipeline);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

TEST(DecomposeEdge, MultiAttributeLhs) {
  // (a, b) -> c with key (a, b, d): composite-LHS partial dependency.
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_match("d");
  s.add_action("c");
  s.add_action("out");
  Table t("t", std::move(s));
  std::size_t port = 0;
  for (Value a = 0; a < 2; ++a) {
    for (Value b = 0; b < 2; ++b) {
      for (Value d = 0; d < 2; ++d) {
        t.add_row(core::Row{a, b, d, 10 * a + b, port++});
      }
    }
  }
  const Fd fd{AttrSet{0, 1}, AttrSet{3}};
  ASSERT_TRUE(fd_holds(t, fd));
  for (const JoinKind join :
       {JoinKind::kGoto, JoinKind::kMetadata, JoinKind::kRematch}) {
    const auto dec = decompose_on_fd(t, fd, {join, "meta.t"});
    ASSERT_TRUE(dec.is_ok()) << to_string(join);
    const auto eq = check_equivalence(t, dec.value().pipeline);
    EXPECT_TRUE(eq.equivalent) << to_string(join) << eq.counterexample;
  }
}

TEST(DecomposeEdge, NestedDecompositionViaSplice) {
  // Decompose, splice, then decompose a sub-stage again by hand —
  // exactly what normalize() does internally.
  Schema s;
  s.add_match("a");
  s.add_action("b");
  s.add_action("c");
  s.add_action("out");
  Table t("t", std::move(s));
  t.add_row(core::Row{1, 10, 100, 1});
  t.add_row(core::Row{2, 10, 100, 2});
  t.add_row(core::Row{3, 20, 200, 3});
  // a -> b -> c chain (b, c non-key actions).
  const auto first =
      decompose_on_fd(t, {AttrSet{1}, AttrSet{2}}, {JoinKind::kMetadata,
                                                    "meta.t"});
  ASSERT_TRUE(first.is_ok()) << first.status().to_string();
  Pipeline p = first.value().pipeline;
  ASSERT_TRUE(check_equivalence(t, p).equivalent);

  // The group stage (meta -> b, c) still carries b -> c inside; split it
  // once more and splice back.
  const std::size_t group_stage = p.entry() == 0 ? 1 : 0;
  const Table group_table = p.stage(group_stage).table;
  const auto b_col = group_table.schema().find("b");
  const auto c_col = group_table.schema().find("c");
  ASSERT_TRUE(b_col.has_value());
  ASSERT_TRUE(c_col.has_value());
  const Fd inner{AttrSet::single(*b_col), AttrSet::single(*c_col)};
  ASSERT_TRUE(fd_holds(group_table, inner));
  const auto second =
      decompose_on_fd(group_table, inner, {JoinKind::kMetadata, "meta.u"});
  ASSERT_TRUE(second.is_ok()) << second.status().to_string();
  p.splice(group_stage, second.value().pipeline);
  ASSERT_TRUE(p.validate().is_ok());
  const auto eq = check_equivalence(t, p);
  EXPECT_TRUE(eq.equivalent) << eq.counterexample;
}

// Randomized sweep: pick random mined FDs on random tables and attempt
// decomposition; every accepted decomposition must be equivalent.
class DecomposeSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DecomposeSweep, AcceptedDecompositionsAreAlwaysEquivalent) {
  Rng rng(GetParam());
  Schema s;
  const std::size_t match_cols = 1 + rng.index(2);
  const std::size_t action_cols = 1 + rng.index(3);
  for (std::size_t i = 0; i < match_cols; ++i) {
    s.add_match("m" + std::to_string(i));
  }
  for (std::size_t i = 0; i < action_cols; ++i) {
    s.add_action("a" + std::to_string(i));
  }
  Table t("rand", std::move(s));
  std::set<std::vector<Value>> used;
  for (std::size_t r = 0; r < 2 + rng.index(10); ++r) {
    std::vector<Value> key;
    for (std::size_t c = 0; c < match_cols; ++c) {
      key.push_back(rng.uniform(0, 3));
    }
    if (!used.insert(key).second) continue;
    Row row = key;
    for (std::size_t c = 0; c < action_cols; ++c) {
      row.push_back(rng.uniform(0, 2));
    }
    t.add_row(std::move(row));
  }

  const FdSet mined = mine_fds_tane(t);
  std::size_t attempted = 0;
  for (const Fd& fd : mined.fds()) {
    if (fd.lhs.empty()) continue;
    for (const JoinKind join :
         {JoinKind::kGoto, JoinKind::kMetadata, JoinKind::kRematch}) {
      const auto dec = decompose_on_fd(t, fd, {join, "meta.t"});
      ++attempted;
      if (!dec.is_ok()) continue;  // rejection is always allowed
      const auto eq = check_equivalence(t, dec.value().pipeline,
                                        {.random_probes = 96});
      ASSERT_TRUE(eq.equivalent)
          << to_string(join) << " on " << to_string(fd, t.schema()) << "\n"
          << t.to_string() << "\n"
          << dec.value().pipeline.to_string() << "\n"
          << eq.counterexample;
    }
  }
  (void)attempted;
}

INSTANTIATE_TEST_SUITE_P(Random, DecomposeSweep,
                         ::testing::Range<std::uint64_t>(900, 940));

}  // namespace
}  // namespace maton::core

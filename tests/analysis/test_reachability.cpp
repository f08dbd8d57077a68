// Reachability pass: MA201 (out-of-range targets), MA202 (cycles),
// MA203 (unreachable table with rules), MA204 (unreachable empty table).
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"

namespace maton::analysis {
namespace {

using dp::FieldId;

dp::Rule hit_rule(std::optional<std::size_t> goto_table = std::nullopt) {
  dp::Rule r;
  r.actions.push_back({dp::Action::Kind::kOutput, FieldId::kMeta0, 1});
  r.goto_table = goto_table;
  return r;
}

dp::TableSpec table(std::string name, std::vector<dp::Rule> rules,
                    std::optional<std::size_t> next = std::nullopt) {
  dp::TableSpec t;
  t.name = std::move(name);
  for (const dp::Rule& r : rules) t.rules.push_back(r);
  t.next = next;
  return t;
}

Report run_reachability(const dp::Program& program) {
  Input input;
  input.program = &program;
  Options options;
  options.shadowing = false;
  options.dataflow = false;
  options.schema_nf = false;
  options.decomposition = false;
  return run(input, options);
}

std::vector<std::string> codes(const Report& report) {
  std::vector<std::string> out;
  out.reserve(report.diagnostics.size());
  for (const Diagnostic& d : report.diagnostics) out.push_back(d.code);
  return out;
}

TEST(Reachability, LinearChainIsClean) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}, 1));
  program.tables.push_back(table("b", {hit_rule()}));
  EXPECT_TRUE(run_reachability(program).diagnostics.empty());
}

TEST(Reachability, GotoTargetOutOfRangeIsError) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule(5)}));
  const Report report = run_reachability(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA201"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_EQ(report.diagnostics[0].rule, 0u);
  EXPECT_FALSE(report.clean(Severity::kError));
}

TEST(Reachability, DefaultNextOutOfRangeIsError) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}, 9));
  EXPECT_EQ(codes(run_reachability(program)),
            std::vector<std::string>{"MA201"});
}

TEST(Reachability, EntryOutOfRangeIsError) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}));
  program.entry = 3;
  EXPECT_EQ(codes(run_reachability(program)),
            std::vector<std::string>{"MA201"});
}

TEST(Reachability, TwoTableCycleIsError) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule(1)}));
  program.tables.push_back(table("b", {hit_rule(0)}));
  const Report report = run_reachability(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA202"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_NE(report.diagnostics[0].witness.find("cycle:"),
            std::string::npos);
}

TEST(Reachability, SelfLoopViaDefaultNextIsError) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}, 0));
  EXPECT_EQ(codes(run_reachability(program)),
            std::vector<std::string>{"MA202"});
}

TEST(Reachability, UnreachableTableWithRulesIsWarning) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}));
  program.tables.push_back(table("orphan", {hit_rule()}));
  const Report report = run_reachability(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA203"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics[0].table, 1u);
}

TEST(Reachability, UnreachableEmptyTableIsInfoOnly) {
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}));
  program.tables.push_back(table("drained", {}));
  const Report report = run_reachability(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA204"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kInfo);
  // The post-compile hook filters at warning severity: this must not
  // count as a finding there (churn leaves drained tables behind).
  EXPECT_TRUE(report.clean(Severity::kWarning));
}

TEST(Reachability, BranchingViaGotoReachesAllTargets) {
  dp::Program program;
  program.tables.push_back(table("sel", {hit_rule(1), hit_rule(2)}));
  program.tables.push_back(table("lb0", {hit_rule()}));
  program.tables.push_back(table("lb1", {hit_rule()}));
  EXPECT_TRUE(run_reachability(program).diagnostics.empty());
}

TEST(Reachability, MissEndsPipelineSoNextOfEmptyTableIsNotAnEdge) {
  // Table b is empty: every packet entering it misses and drops, so c
  // (only reachable through b.next) is never entered. c carries rules →
  // MA203.
  dp::Program program;
  program.tables.push_back(table("a", {hit_rule()}, 1));
  program.tables.push_back(table("b", {}, 2));
  program.tables.push_back(table("c", {hit_rule()}));
  EXPECT_EQ(codes(run_reachability(program)),
            std::vector<std::string>{"MA203"});
}

}  // namespace
}  // namespace maton::analysis

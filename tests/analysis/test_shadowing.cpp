// Shadowing pass: MA101 (fully shadowed rule), MA102 (equal-priority
// ambiguous overlap), MA103 (self-contradictory rule).
#include <gtest/gtest.h>

#include "analysis/analysis.hpp"

namespace maton::analysis {
namespace {

using dp::FieldId;

dp::Rule rule(std::uint32_t priority,
              std::vector<dp::FieldMatch> matches,
              std::uint64_t out = 1) {
  dp::Rule r;
  r.priority = priority;
  r.matches = std::move(matches);
  r.actions.push_back({dp::Action::Kind::kOutput, FieldId::kMeta0, out});
  return r;
}

dp::Program one_table(std::vector<dp::Rule> rules) {
  dp::Program program;
  dp::TableSpec table;
  table.name = "t0";
  table.rules = std::move(rules);
  program.tables.push_back(std::move(table));
  return program;
}

Report run_shadowing(const dp::Program& program) {
  Input input;
  input.program = &program;
  Options options;
  options.reachability = false;
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

TEST(Shadowing, ExactDuplicateIsShadowed) {
  const auto program = one_table({
      rule(10, {{FieldId::kTcpDst, 80, 0xffff}}),
      rule(5, {{FieldId::kTcpDst, 80, 0xffff}}, 2),
  });
  const Report report = run_shadowing(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA101"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
  EXPECT_EQ(report.diagnostics[0].table, 0u);
  EXPECT_EQ(report.diagnostics[0].rule, 1u);
  // The witness names the shadowing rule.
  EXPECT_NE(report.diagnostics[0].witness.find("rule#0"),
            std::string::npos);
}

TEST(Shadowing, BroaderPrefixShadowsNarrower) {
  // /8 before /16 on the same field: the /16 can never match.
  const auto program = one_table({
      rule(8, {{FieldId::kIpDst, 0x0a000000, 0xff000000}}),
      rule(4, {{FieldId::kIpDst, 0x0a0b0000, 0xffff0000}}, 2),
  });
  EXPECT_EQ(codes(run_shadowing(program)),
            std::vector<std::string>{"MA101"});
}

TEST(Shadowing, UnconstrainedEarlierRuleShadowsEverything) {
  const auto program = one_table({
      rule(1, {}),  // match-all
      rule(0, {{FieldId::kTcpDst, 22, 0xffff}}, 2),
  });
  EXPECT_EQ(codes(run_shadowing(program)),
            std::vector<std::string>{"MA101"});
}

TEST(Shadowing, DisjointPrefixesAreClean) {
  const auto program = one_table({
      rule(8, {{FieldId::kIpDst, 0x0a000000, 0xff000000}}),
      rule(8, {{FieldId::kIpDst, 0x0b000000, 0xff000000}}, 2),
  });
  EXPECT_TRUE(run_shadowing(program).diagnostics.empty());
}

TEST(Shadowing, NarrowerBeforeBroaderIsClean) {
  // Priority order puts the more specific rule first: no shadowing.
  const auto program = one_table({
      rule(16, {{FieldId::kIpDst, 0x0a0b0000, 0xffff0000}}),
      rule(8, {{FieldId::kIpDst, 0x0a000000, 0xff000000}}, 2),
  });
  EXPECT_TRUE(run_shadowing(program).diagnostics.empty());
}

TEST(Shadowing, EqualPriorityOverlapWithDifferentActions) {
  // Two ternary rules whose fixed bits agree where their masks overlap
  // but neither subsumes the other, same priority, different outputs.
  const auto program = one_table({
      rule(16, {{FieldId::kIpDst, 0x0a000000, 0xff000000}}, 1),
      rule(16, {{FieldId::kTcpDst, 80, 0xffff}}, 2),
  });
  const Report report = run_shadowing(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA102"});
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kWarning);
}

TEST(Shadowing, EqualPriorityOverlapSameOutcomeIsClean) {
  const auto program = one_table({
      rule(16, {{FieldId::kIpDst, 0x0a000000, 0xff000000}}, 7),
      rule(16, {{FieldId::kTcpDst, 80, 0xffff}}, 7),
  });
  EXPECT_TRUE(run_shadowing(program).diagnostics.empty());
}

TEST(Shadowing, ContradictoryRuleCanNeverMatch) {
  dp::Rule r = rule(4, {{FieldId::kTcpDst, 80, 0xffff},
                        {FieldId::kTcpDst, 443, 0xffff}});
  const auto program = one_table({std::move(r)});
  const Report report = run_shadowing(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA103"});
  EXPECT_NE(report.diagnostics[0].message.find("tcp_dst"),
            std::string::npos);
}

// A rule's matches read as one region, as execute_reference reads them:
// every match on a field counts, and value bits outside a mask do too.
TEST(Shadowing, RepeatedMatchesOnAFieldAreConjoined) {
  // 10/8 and 10.1/16 together admit exactly 10.1/16, which the earlier
  // rule already takes.
  const auto program = one_table({
      rule(16, {{FieldId::kIpSrc, 0x0a010000, 0xffff0000}}),
      rule(16,
           {{FieldId::kIpSrc, 0x0a000000, 0xff000000},
            {FieldId::kIpSrc, 0x0a010000, 0xffff0000}},
           2),
  });
  const Report report = run_shadowing(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA101"});
  EXPECT_EQ(report.diagnostics[0].rule, 1u);
}

TEST(Shadowing, RepeatedMatchesDisjointFromAnEqualPriorityRule) {
  // The conjunction is 10.1/16, disjoint from 10.2/16: no key reaches
  // both rules, so lookup order decides nothing.
  const auto program = one_table({
      rule(16, {{FieldId::kIpSrc, 0x0a020000, 0xffff0000}}),
      rule(16,
           {{FieldId::kIpSrc, 0x0a000000, 0xff000000},
            {FieldId::kIpSrc, 0x0a010000, 0xffff0000}},
           2),
  });
  EXPECT_TRUE(run_shadowing(program).diagnostics.empty());
}

TEST(Shadowing, ValueBitOutsideTheMaskCanNeverMatch) {
  // key & 0x0f never has bit 0x40 set.
  const auto program = one_table({rule(4, {{FieldId::kTcpDst, 0x50, 0x0f}})});
  const Report report = run_shadowing(program);
  ASSERT_EQ(codes(report), std::vector<std::string>{"MA103"});
  EXPECT_NE(report.diagnostics[0].message.find("tcp_dst"),
            std::string::npos);
}

TEST(Shadowing, DeliberateShadowRendersInBothFormats) {
  // The acceptance fixture: a deliberately shadowed table must surface
  // MA101 with its witness through the text and JSON renderers alike.
  const auto program = one_table({
      rule(10, {{FieldId::kTcpDst, 80, 0xffff}}),
      rule(5, {{FieldId::kTcpDst, 80, 0xffff}}, 2),
  });
  const Report report = run_shadowing(program);

  const std::string text = render_text(report);
  EXPECT_NE(text.find("warning[MA101] table 0 rule#1"), std::string::npos)
      << text;
  EXPECT_NE(text.find("witness: "), std::string::npos) << text;

  const std::string json = render_json(report);
  EXPECT_NE(json.find("\"code\":\"MA101\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"witness\":\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"table\":0,\"rule\":1"), std::string::npos) << json;
}

TEST(Shadowing, SeverityFilterSuppressesWarnings) {
  const auto program = one_table({
      rule(10, {{FieldId::kTcpDst, 80, 0xffff}}),
      rule(5, {{FieldId::kTcpDst, 80, 0xffff}}, 2),
  });
  Input input;
  input.program = &program;
  Options options;
  options.min_severity = Severity::kError;
  options.reachability = false;
  options.dataflow = false;
  options.schema_nf = false;
  options.decomposition = false;
  EXPECT_TRUE(run(input, options).diagnostics.empty());
}

}  // namespace
}  // namespace maton::analysis

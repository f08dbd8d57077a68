// The MA6xx symbolic pass: diagnostics carry the right codes and
// severities, refutations come with scalar-confirmed counterexample
// witnesses, proofs surface as MA602 info certificates, and a starved
// solver degrades to MA604 — never to a wrong verdict.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "dataplane/program.hpp"

namespace maton::analysis {
namespace {

dp::Program tiny_program(std::uint64_t out_port) {
  dp::Program program;
  dp::TableSpec spec{"t", {dp::FieldId::kIpDst}, {}, std::nullopt};
  dp::Rule rule;
  rule.priority = 10;
  rule.matches.push_back(
      {.field = dp::FieldId::kIpDst, .value = 7, .mask = 0xff});
  rule.actions.push_back({.kind = dp::Action::Kind::kOutput,
                          .field = dp::FieldId::kMeta0,
                          .value = out_port});
  spec.rules.push_back(rule);
  program.tables.push_back(std::move(spec));
  program.entry = 0;
  return program;
}

dp::FlatRules slice_matching(std::uint64_t value, std::uint64_t mask) {
  dp::Rule rule;
  rule.priority = 1;
  rule.matches.push_back(
      {.field = dp::FieldId::kIpDst, .value = value, .mask = mask});
  return {rule};
}

const Diagnostic* find_code(const Report& report, std::string_view code) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code == code) return &d;
  }
  return nullptr;
}

TEST(SymbolicPass, SkippedWithoutInputs) {
  const Report report = run(Input{});
  for (const PassStats& pass : report.passes) {
    if (pass.name == "symbolic") {
      EXPECT_FALSE(pass.ran);
    }
  }
}

TEST(SymbolicPass, Ma601CarriesConfirmedCounterexample) {
  const dp::Program left = tiny_program(1);
  const dp::Program right = tiny_program(2);
  Input input;
  input.program_pair = {.left = &left,
                        .right = &right,
                        .left_name = "live",
                        .right_name = "reference"};
  const Report report = run(input);
  const Diagnostic* d = find_code(report, "MA601");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_EQ(d->pass, "symbolic");
  EXPECT_NE(d->message.find("'live' vs 'reference'"), std::string::npos);
  // The witness is the confirmed divergence rendering, never empty.
  EXPECT_FALSE(d->witness.empty());
  EXPECT_FALSE(report.clean(Severity::kError));
}

TEST(SymbolicPass, Ma601SilentOnEquivalentPrograms) {
  const dp::Program left = tiny_program(1);
  const dp::Program right = tiny_program(1);
  Input input;
  input.program_pair = {.left = &left,
                        .right = &right,
                        .left_name = "a",
                        .right_name = "b"};
  const Report report = run(input);
  EXPECT_EQ(find_code(report, "MA601"), nullptr);
  for (const PassStats& pass : report.passes) {
    if (pass.name == "symbolic") {
      EXPECT_TRUE(pass.ran);
      EXPECT_EQ(pass.diagnostics, 0u);
    }
  }
}

TEST(SymbolicPass, Ma602ReportsProofAndViolation) {
  const dp::FlatRules low = slice_matching(0x00, 0xf0);
  const dp::FlatRules high = slice_matching(0x10, 0xf0);
  const dp::FlatRules all = slice_matching(0, 0);

  Input input;
  input.slices.push_back(
      {.left = &low, .right = &high, .left_name = "a", .right_name = "b"});
  input.slices.push_back(
      {.left = &low, .right = &all, .left_name = "a", .right_name = "c"});
  const Report report = run(input);

  std::size_t infos = 0;
  std::size_t warnings = 0;
  for (const Diagnostic& d : report.diagnostics) {
    if (d.code != "MA602") continue;
    if (d.severity == Severity::kInfo) {
      ++infos;
      EXPECT_NE(d.message.find("proven disjoint"), std::string::npos);
    } else {
      ++warnings;
      EXPECT_EQ(d.severity, Severity::kWarning);
      EXPECT_NE(d.message.find("overlapping"), std::string::npos);
    }
  }
  EXPECT_EQ(infos, 1u);
  EXPECT_EQ(warnings, 1u);
}

TEST(SymbolicPass, Ma603RefutesBrokenDecomposition) {
  core::Schema schema;
  schema.add_match("k", core::ValueCodec::kPlain, 8);
  schema.add_action("out", core::ValueCodec::kPlain, 8);
  core::Table universal("u", schema);
  universal.add_row(core::Row{1, 10});
  universal.add_row(core::Row{2, 20});

  core::Table broken("d", schema);
  broken.add_row(core::Row{1, 10});
  broken.add_row(core::Row{2, 21});  // different action for k=2
  const core::Pipeline pipeline = core::Pipeline::single(broken);

  Input input;
  input.symbolic_decomposition = {.universal = &universal,
                                  .pipeline = &pipeline,
                                  .name = "broken"};
  const Report report = run(input);
  const Diagnostic* d = find_code(report, "MA603");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kError);
  EXPECT_NE(d->message.find("'broken'"), std::string::npos);
  EXPECT_FALSE(d->witness.empty());
}

TEST(SymbolicPass, Ma604OnExhaustedBudgetNeverAWrongVerdict) {
  const dp::Program left = tiny_program(1);
  const dp::Program right = tiny_program(1);
  Input input;
  input.program_pair = {.left = &left,
                        .right = &right,
                        .left_name = "a",
                        .right_name = "b"};
  Options options;
  options.symbolic_max_nodes = 2;  // starve the solver
  const Report report = run(input, options);
  const Diagnostic* d = find_code(report, "MA604");
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->severity, Severity::kWarning);
  EXPECT_FALSE(d->witness.empty());  // the solver's note
  EXPECT_EQ(find_code(report, "MA601"), nullptr);
  // kUnknown keeps the report clean at error severity: budgets cost an
  // answer, not correctness.
  EXPECT_TRUE(report.clean(Severity::kError));
}

TEST(SymbolicPass, DisabledByOption) {
  const dp::Program left = tiny_program(1);
  const dp::Program right = tiny_program(2);
  Input input;
  input.program_pair = {.left = &left,
                        .right = &right,
                        .left_name = "a",
                        .right_name = "b"};
  Options options;
  options.symbolic = false;
  const Report report = run(input, options);
  EXPECT_EQ(find_code(report, "MA601"), nullptr);
  for (const PassStats& pass : report.passes) {
    EXPECT_NE(pass.name, "symbolic");
  }
}

}  // namespace
}  // namespace maton::analysis

// Schema/NF conformance pass (MA4xx) and decomposition-safety pass
// (MA5xx), including the end-to-end guarantee that the gwlb programs of
// the paper's Fig. 1 are diagnostic-clean at warning severity.
#include <gtest/gtest.h>

#include <algorithm>

#include "analysis/analysis.hpp"
#include "controlplane/compiler.hpp"
#include "workloads/gwlb.hpp"

namespace maton::analysis {
namespace {

/// Fig. 1a-shaped fixture: (ip_src, vip, port | out) with vip → port —
/// denormalized on purpose, like the paper's universal table.
core::Table denormalized_table() {
  core::Schema schema;
  schema.add_match("ip_src");
  schema.add_match("vip");
  schema.add_match("port");
  schema.add_action("out");
  core::Table table("fixture", schema);
  table.add_row(core::Row{1, 10, 80, 100});
  table.add_row(core::Row{2, 10, 80, 101});
  table.add_row(core::Row{1, 11, 443, 102});
  table.add_row(core::Row{2, 11, 443, 103});
  return table;
}

Report run_schema_nf(const Input& input,
                     Severity min_severity = Severity::kInfo) {
  Options options;
  options.min_severity = min_severity;
  options.shadowing = false;
  options.reachability = false;
  options.dataflow = false;
  return run(input, options);
}

bool has_code(const Report& report, std::string_view code) {
  return std::any_of(report.diagnostics.begin(), report.diagnostics.end(),
                     [&](const Diagnostic& d) { return d.code == code; });
}

TEST(NfLints, DuplicateMatchKeyIsErrorWithRowWitness) {
  core::Table table = denormalized_table();
  table.add_row(core::Row{1, 10, 80, 999});  // same match key as row 0
  Input input;
  input.tables.push_back({&table, nullptr});
  const Report report = run_schema_nf(input);
  ASSERT_TRUE(has_code(report, "MA401"));
  const auto& d = report.diagnostics.front();
  EXPECT_EQ(d.code, "MA401");
  EXPECT_EQ(d.severity, Severity::kError);
  EXPECT_NE(d.witness.find("row#0"), std::string::npos);
  EXPECT_NE(d.witness.find("row#4"), std::string::npos);
}

TEST(NfLints, ViolatedDeclaredFdIsErrorWithRowWitness) {
  core::Table table = denormalized_table();
  table.add_row(core::Row{3, 10, 8080, 104});  // vip 10 now maps to two ports
  core::FdSet declared;
  declared.add(core::AttrSet::single(1), core::AttrSet::single(2));
  Input input;
  input.tables.push_back({&table, &declared});
  const Report report = run_schema_nf(input);
  ASSERT_TRUE(has_code(report, "MA402"));
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == "MA402"; });
  EXPECT_EQ(it->severity, Severity::kError);
  EXPECT_NE(it->message.find("vip -> port"), std::string::npos);
  EXPECT_NE(it->witness.find("row#"), std::string::npos);
}

TEST(NfLints, HoldingDeclaredFdIsClean) {
  core::Table table = denormalized_table();
  core::FdSet declared;
  declared.add(core::AttrSet::single(1), core::AttrSet::single(2));
  Input input;
  input.tables.push_back({&table, &declared});
  EXPECT_FALSE(has_code(run_schema_nf(input), "MA402"));
}

TEST(NfLints, DenormalizedFixtureGetsStatusLints) {
  core::Table table = denormalized_table();
  Input input;
  input.tables.push_back({&table, nullptr});
  const Report report = run_schema_nf(input);
  // {ip_src, vip} is a candidate key strictly inside the match set.
  EXPECT_TRUE(has_code(report, "MA403"));
  // vip ↔ port in this instance, so both are prime and vip → port is a
  // BCNF violation (not a partial dependency on a non-prime attribute).
  EXPECT_TRUE(has_code(report, "MA406"));
  for (const Diagnostic& d : report.diagnostics) {
    EXPECT_EQ(d.severity, Severity::kInfo) << d.code;
  }
  // All of that is informational: the report is warning-clean.
  EXPECT_TRUE(report.clean(Severity::kWarning));
}

TEST(NfLints, PartialDependencyFixtureIsBelow2NF) {
  // (svc, backend, vip | out) with svc → vip and vip shared between
  // services 1 and 3: vip is non-prime, determined by a proper subset
  // of the key {svc, backend} — a textbook 2NF violation.
  core::Schema schema;
  schema.add_match("svc");
  schema.add_match("backend");
  schema.add_match("vip");
  schema.add_action("out");
  core::Table table("fixture2nf", schema);
  table.add_row(core::Row{1, 0, 10, 100});
  table.add_row(core::Row{1, 1, 10, 101});
  table.add_row(core::Row{2, 0, 11, 102});
  table.add_row(core::Row{2, 1, 11, 103});
  table.add_row(core::Row{3, 0, 10, 104});
  table.add_row(core::Row{3, 1, 10, 105});
  Input input;
  input.tables.push_back({&table, nullptr});
  const Report report = run_schema_nf(input);
  ASSERT_TRUE(has_code(report, "MA404"));
  const auto it = std::find_if(
      report.diagnostics.begin(), report.diagnostics.end(),
      [](const Diagnostic& d) { return d.code == "MA404"; });
  EXPECT_EQ(it->severity, Severity::kInfo);
  EXPECT_NE(it->message.find("vip"), std::string::npos);
}

TEST(NfLints, WarningSeverityskipsStatusLints) {
  core::Table table = denormalized_table();
  Input input;
  input.tables.push_back({&table, nullptr});
  const Report report = run_schema_nf(input, Severity::kWarning);
  EXPECT_TRUE(report.diagnostics.empty());
  // The pass still ran (and would have reported MA401/MA402).
  const auto it = std::find_if(
      report.passes.begin(), report.passes.end(),
      [](const PassStats& p) { return p.name == "schema_nf"; });
  ASSERT_NE(it, report.passes.end());
  EXPECT_TRUE(it->ran);
}

Input::DecompositionCheck make_check(const core::Schema& schema,
                                     const core::FdSet& fds,
                                     std::vector<core::AttrSet> components) {
  Input::DecompositionCheck check;
  check.schema = &schema;
  check.fds = &fds;
  check.components = std::move(components);
  check.name = "fixture";
  return check;
}

Report run_decomposition(const Input& input) {
  Options options;
  options.shadowing = false;
  options.reachability = false;
  options.dataflow = false;
  options.schema_nf = false;
  return run(input, options);
}

TEST(Decomposition, HeathSplitOnFdIsLossless) {
  const core::Table table = denormalized_table();
  const core::Schema& schema = table.schema();
  core::FdSet fds;
  fds.add(core::AttrSet::single(1), core::AttrSet::single(2));  // vip→port
  // π(vip, port) ⋈ π(ip_src, vip, out): shared attribute vip determines
  // the first component — Theorem 1 applies.
  const core::AttrSet first =
      core::AttrSet::single(1) | core::AttrSet::single(2);
  const core::AttrSet second = core::AttrSet::single(0) |
                               core::AttrSet::single(1) |
                               core::AttrSet::single(3);
  Input input;
  input.decomposition = make_check(schema, fds, {first, second});
  EXPECT_TRUE(run_decomposition(input).diagnostics.empty());
}

TEST(Decomposition, WithoutTheFdTheSplitIsNotProvablyLossless) {
  const core::Table table = denormalized_table();
  const core::Schema& schema = table.schema();
  const core::FdSet no_fds;
  const core::AttrSet first =
      core::AttrSet::single(1) | core::AttrSet::single(2);
  const core::AttrSet second = core::AttrSet::single(0) |
                               core::AttrSet::single(1) |
                               core::AttrSet::single(3);
  Input input;
  input.decomposition = make_check(schema, no_fds, {first, second});
  const Report report = run_decomposition(input);
  ASSERT_TRUE(has_code(report, "MA501"));
  EXPECT_EQ(report.diagnostics[0].severity, Severity::kError);
  EXPECT_NE(report.diagnostics[0].message.find("Theorem 1"),
            std::string::npos);
  EXPECT_NE(report.diagnostics[0].witness.find("closure"),
            std::string::npos);
}

TEST(Decomposition, MissingAttributeIsCoverageError) {
  const core::Table table = denormalized_table();
  const core::Schema& schema = table.schema();
  const core::FdSet no_fds;
  const core::AttrSet first =
      core::AttrSet::single(0) | core::AttrSet::single(1);
  const core::AttrSet second =
      core::AttrSet::single(1) | core::AttrSet::single(3);
  Input input;
  input.decomposition = make_check(schema, no_fds, {first, second});
  const Report report = run_decomposition(input);
  ASSERT_TRUE(has_code(report, "MA502"));
  EXPECT_NE(report.diagnostics[0].message.find("port"),
            std::string::npos);
}

TEST(Decomposition, RematchComponentsNeedTheModelFd) {
  // The real thing: the rematch representation's second stage drops
  // tcp_dst, so the join is lossless only under ip_dst → tcp_dst.
  const core::Schema schema = workloads::gwlb_universal_schema();
  const auto components = cp::decomposition_components(
      cp::Representation::kRematch, schema);
  const workloads::Gwlb gwlb = workloads::make_paper_example();

  core::FdSet with_fd = gwlb.model_fds;
  with_fd.add(schema.match_set(), schema.all());
  Input good;
  good.decomposition = make_check(schema, with_fd, components);
  EXPECT_TRUE(run_decomposition(good).diagnostics.empty());

  core::FdSet without_fd;
  without_fd.add(schema.match_set(), schema.all());
  Input bad;
  bad.decomposition = make_check(schema, without_fd, components);
  EXPECT_TRUE(has_code(run_decomposition(bad), "MA501"));
}

TEST(EndToEnd, PaperFigurePipelinesAreWarningClean) {
  for (const auto repr :
       {cp::Representation::kUniversal, cp::Representation::kGoto,
        cp::Representation::kMetadata, cp::Representation::kRematch}) {
    const cp::GwlbBinding binding(workloads::make_paper_example(), repr);
    const workloads::Gwlb& model = binding.gwlb();
    const core::Schema& schema = model.universal.schema();
    core::FdSet join_fds = model.model_fds;
    join_fds.add(schema.match_set(), schema.all());

    Input input;
    input.program = &binding.program();
    input.tables.push_back({&model.universal, &model.model_fds});
    Input::DecompositionCheck check =
        make_check(schema, join_fds,
                   cp::decomposition_components(repr, schema));
    input.decomposition = std::move(check);

    const Report report = run(input);
    EXPECT_TRUE(report.clean(Severity::kWarning))
        << to_string(repr) << ":\n"
        << render_text(report);
    // Every pass had input and ran (the symbolic pass takes its own
    // program-pair/slice/decomposition inputs, not supplied here).
    for (const PassStats& pass : report.passes) {
      if (pass.name == "symbolic") continue;
      EXPECT_TRUE(pass.ran) << to_string(repr) << " " << pass.name;
    }
  }
}

TEST(EndToEnd, SeedShapeIsWarningCleanAcrossRepresentations) {
  for (const auto repr :
       {cp::Representation::kUniversal, cp::Representation::kGoto,
        cp::Representation::kMetadata, cp::Representation::kRematch}) {
    const cp::GwlbBinding binding(
        workloads::make_gwlb({.num_services = 20, .num_backends = 8}),
        repr);
    Input input;
    input.program = &binding.program();
    input.tables.push_back(
        {&binding.gwlb().universal, &binding.gwlb().model_fds});
    Options options;
    options.min_severity = Severity::kWarning;
    const Report report = run(input, options);
    EXPECT_TRUE(report.diagnostics.empty())
        << to_string(repr) << ":\n"
        << render_text(report);
  }
}

}  // namespace
}  // namespace maton::analysis

#include "dataplane/program.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "core/decompose.hpp"
#include "core/synthesis.hpp"
#include "util/format.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"

namespace maton::dp {
namespace {

/// Builds the flow key a gwlb universal-table row describes.
FlowKey key_for_gwlb_row(const core::Table& t, std::size_t row) {
  FlowKey key;
  const core::Value src_token = t.at(row, workloads::kGwlbIpSrc);
  key.set(FieldId::kIpSrc, static_cast<std::uint32_t>(src_token >> 8));
  key.set(FieldId::kIpDst, t.at(row, workloads::kGwlbIpDst));
  key.set(FieldId::kTcpDst, t.at(row, workloads::kGwlbTcpDst));
  return key;
}

TEST(Compile, GwlbUniversalProgram) {
  const auto gwlb = workloads::make_paper_example();
  const auto program = compile(core::Pipeline::single(gwlb.universal));
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  ASSERT_EQ(program.value().tables.size(), 1u);
  const TableSpec& table = program.value().tables[0];
  EXPECT_EQ(table.rules.size(), 6u);
  // ip_src carries prefixes, ip_dst/tcp_dst are exact → single-prefix.
  EXPECT_EQ(table.profile(), MatchProfile::kSinglePrefix);

  // Every row's own packet must hit and output its backend.
  for (std::size_t r = 0; r < gwlb.universal.num_rows(); ++r) {
    const ExecResult result =
        execute_reference(program.value(), key_for_gwlb_row(gwlb.universal, r));
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.out_port, gwlb.universal.at(r, workloads::kGwlbOut));
  }
}

TEST(Compile, PrefixTokensBecomeMaskedMatches) {
  const auto gwlb = workloads::make_paper_example();
  const auto program = compile(core::Pipeline::single(gwlb.universal));
  ASSERT_TRUE(program.is_ok());
  // Tenant 1's first backend matches 0.0.0.0/1: mask = 0x80000000.
  bool found_half_prefix = false;
  for (const Rule& rule : program.value().tables[0].rules) {
    for (const FieldMatch& m : rule.matches) {
      if (m.field == FieldId::kIpSrc && m.mask == 0x80000000u) {
        found_half_prefix = true;
      }
    }
  }
  EXPECT_TRUE(found_half_prefix);
}

TEST(Compile, LongestPrefixWinsViaPriority) {
  // Tenant 2 splits 1:1:2 → /2, /2 and /1 prefixes. A source in the /2
  // range must be routed by the /2 rule even though 128.0.0.0/1 overlaps
  // nothing here; craft an overlap via tenant 3's 0.0.0.0/0 instead:
  // a packet for tenant 3 matches only /0; a tenant-2 packet must not
  // leak into tenant 3's rule despite /0 matching every source.
  const auto gwlb = workloads::make_paper_example();
  const auto program = compile(core::Pipeline::single(gwlb.universal));
  ASSERT_TRUE(program.is_ok());

  FlowKey key;
  key.set(FieldId::kIpSrc, ipv4(1, 2, 3, 4));  // 0.0.0.0/2 range
  key.set(FieldId::kIpDst, ipv4(192, 0, 2, 2));
  key.set(FieldId::kTcpDst, 443);
  const ExecResult r = execute_reference(program.value(), key);
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.out_port, 3u);  // vm3 serves 0.0.0.0/2
}

TEST(Compile, MetadataAttributesGetRegisters) {
  const auto gwlb = workloads::make_paper_example();
  const auto pipeline = cp::pipeline_for(gwlb, cp::Representation::kMetadata);
  const auto program = compile(pipeline);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  ASSERT_EQ(program.value().tables.size(), 2u);
  // Stage 2 matches the tenant tag: must use a metadata register.
  bool uses_meta = false;
  for (const FieldId f : program.value().tables[1].fields) {
    if (f == FieldId::kMeta0) uses_meta = true;
  }
  EXPECT_TRUE(uses_meta);

  // Functional check through the two-stage program.
  for (std::size_t r = 0; r < gwlb.universal.num_rows(); ++r) {
    const ExecResult result =
        execute_reference(program.value(), key_for_gwlb_row(gwlb.universal, r));
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.out_port, gwlb.universal.at(r, workloads::kGwlbOut));
  }
}

TEST(Compile, GotoPipelineProgram) {
  const auto gwlb = workloads::make_paper_example();
  const auto program =
      compile(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  ASSERT_TRUE(program.is_ok());
  ASSERT_EQ(program.value().tables.size(), 4u);
  // First table's rules carry goto targets.
  for (const Rule& rule : program.value().tables[0].rules) {
    EXPECT_TRUE(rule.goto_table.has_value());
  }
  for (std::size_t r = 0; r < gwlb.universal.num_rows(); ++r) {
    const ExecResult result =
        execute_reference(program.value(), key_for_gwlb_row(gwlb.universal, r));
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.out_port, gwlb.universal.at(r, workloads::kGwlbOut));
  }
  // Misses drop.
  FlowKey miss;
  miss.set(FieldId::kIpSrc, 1);
  miss.set(FieldId::kIpDst, 12345);
  miss.set(FieldId::kTcpDst, 80);
  EXPECT_FALSE(execute_reference(program.value(), miss).hit);
}

TEST(Compile, SplicedHusksAreElided) {
  // normalize() splices decomposed sub-pipelines in place, leaving
  // unreferenced "(spliced)" forwarding husks behind for index
  // stability. Those must not be lowered into the switch program.
  const auto gwlb = workloads::make_paper_example();
  const auto normalized = core::normalize(
      gwlb.universal, {.target = core::NormalForm::kBoyceCodd,
                       .join = core::JoinKind::kRematch,
                       .model_fds = gwlb.model_fds});
  ASSERT_TRUE(normalized.is_ok()) << normalized.status().to_string();
  const core::Pipeline& pipeline = normalized.value().pipeline;
  ASSERT_GT(pipeline.num_stages(), 1u);

  const auto program = compile(pipeline);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();
  std::size_t live_stages = 0;
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    if (pipeline.stage(i).table.name() != "(spliced)") ++live_stages;
  }
  EXPECT_LT(live_stages, pipeline.num_stages());  // a husk existed
  ASSERT_EQ(program.value().tables.size(), live_stages);
  for (const TableSpec& table : program.value().tables) {
    EXPECT_NE(table.name, "(spliced)");
    if (table.next.has_value()) {
      EXPECT_LT(*table.next, program.value().tables.size());
    }
    for (const Rule& rule : table.rules) {
      if (rule.goto_table.has_value()) {
        EXPECT_LT(*rule.goto_table, program.value().tables.size());
      }
    }
  }
  EXPECT_LT(program.value().entry, program.value().tables.size());

  // Behavior is unchanged: every universal row still routes correctly.
  for (std::size_t r = 0; r < gwlb.universal.num_rows(); ++r) {
    const ExecResult result =
        execute_reference(program.value(), key_for_gwlb_row(gwlb.universal, r));
    EXPECT_TRUE(result.hit);
    EXPECT_EQ(result.out_port, gwlb.universal.at(r, workloads::kGwlbOut));
  }
}

TEST(Compile, L3ActionsBecomeRewrites) {
  const auto l3 = workloads::make_paper_l3_example();
  const auto program = compile(core::Pipeline::single(l3.universal));
  ASSERT_TRUE(program.is_ok());
  const TableSpec& table = program.value().tables[0];
  // mod_smac / mod_dmac lower to eth_src / eth_dst set-field actions.
  bool sets_eth_src = false;
  bool sets_eth_dst = false;
  bool outputs = false;
  for (const Action& a : table.rules[0].actions) {
    if (a.kind == Action::Kind::kSetField && a.field == FieldId::kEthSrc) {
      sets_eth_src = true;
    }
    if (a.kind == Action::Kind::kSetField && a.field == FieldId::kEthDst) {
      sets_eth_dst = true;
    }
    if (a.kind == Action::Kind::kOutput) outputs = true;
  }
  EXPECT_TRUE(sets_eth_src);
  EXPECT_TRUE(sets_eth_dst);
  EXPECT_TRUE(outputs);
}

TEST(Compile, RunsOutOfMetadataRegisters) {
  core::Schema s;
  s.add_match("a");
  for (int i = 0; i < 5; ++i) {
    s.add_action("odd_attr_" + std::to_string(i));
  }
  core::Table t("t", std::move(s));
  t.add_row(core::Row{1, 2, 3, 4, 5, 6});
  const auto program = compile(core::Pipeline::single(t));
  ASSERT_FALSE(program.is_ok());
  EXPECT_EQ(program.status().code(), StatusCode::kInvalidArgument);
}

TEST(Profile, Classification) {
  TableSpec exact;
  exact.fields = {FieldId::kIpDst};
  exact.rules.push_back(
      {32, {{FieldId::kIpDst, 1, 0xffffffff}}, {}, std::nullopt});
  EXPECT_EQ(exact.profile(), MatchProfile::kAllExact);

  TableSpec prefix;
  prefix.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  prefix.rules.push_back({48,
                          {{FieldId::kIpDst, 0, 0xffff0000},
                           {FieldId::kTcpDst, 80, 0xffff}},
                          {},
                          std::nullopt});
  EXPECT_EQ(prefix.profile(), MatchProfile::kSinglePrefix);

  TableSpec ternary;
  ternary.fields = {FieldId::kIpDst};
  ternary.rules.push_back(
      {1, {{FieldId::kIpDst, 0, 0x00ff00ff}}, {}, std::nullopt});
  EXPECT_EQ(ternary.profile(), MatchProfile::kTernary);

  // Two different prefix fields → ternary.
  TableSpec two;
  two.fields = {FieldId::kIpDst, FieldId::kIpSrc};
  two.rules.push_back({2,
                       {{FieldId::kIpDst, 0, 0xff000000},
                        {FieldId::kIpSrc, 0, 0xffffffff}},
                       {},
                       std::nullopt});
  two.rules.push_back({2,
                       {{FieldId::kIpDst, 0, 0xffffffff},
                        {FieldId::kIpSrc, 0, 0xff000000}},
                       {},
                       std::nullopt});
  EXPECT_EQ(two.profile(), MatchProfile::kTernary);
}

}  // namespace
}  // namespace maton::dp

// Switch models: functional agreement with the reference executor across
// representations, plus model-specific behaviours (OVS cache collapse,
// update handling, hardware cost model).
#include "dataplane/switch.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "core/decompose.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"

namespace maton::dp {
namespace {

struct Fixture {
  workloads::Gwlb gwlb;
  Program universal;
  Program goto_program;
  Program metadata_program;

  Fixture() {
    gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = 3});
    universal =
        compile(core::Pipeline::single(gwlb.universal)).value();
    goto_program =
        compile(cp::pipeline_for(gwlb, cp::Representation::kGoto)).value();
    metadata_program =
        compile(cp::pipeline_for(gwlb, cp::Representation::kMetadata)).value();
  }
};

FlowKey key_for_row(const core::Table& t, std::size_t row) {
  FlowKey key;
  key.set(FieldId::kIpSrc,
          static_cast<std::uint32_t>(t.at(row, workloads::kGwlbIpSrc) >> 8));
  key.set(FieldId::kIpDst, t.at(row, workloads::kGwlbIpDst));
  key.set(FieldId::kTcpDst, t.at(row, workloads::kGwlbTcpDst));
  return key;
}

std::vector<FlowKey> probe_keys(const workloads::Gwlb& gwlb,
                                std::size_t count) {
  Rng rng(42);
  std::vector<FlowKey> keys;
  for (std::size_t i = 0; i < count; ++i) {
    FlowKey key;
    if (rng.chance(0.9)) {
      const auto& svc = gwlb.services[rng.index(gwlb.services.size())];
      key.set(FieldId::kIpDst, svc.vip);
      key.set(FieldId::kTcpDst, svc.port);
    } else {
      key.set(FieldId::kIpDst, rng.uniform(0, 1u << 30));
      key.set(FieldId::kTcpDst, rng.uniform(0, 65535));
    }
    key.set(FieldId::kIpSrc, rng.uniform(0, 0xffffffffULL));
    keys.push_back(key);
  }
  return keys;
}

class SwitchAgreement
    : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<SwitchModel> make(std::string_view which) {
    if (which == "eswitch") return make_eswitch_model();
    if (which == "lagopus") return make_lagopus_model();
    if (which == "ovs") return make_ovs_model();
    return std::make_unique<HwTcamModel>();
  }
};

TEST_P(SwitchAgreement, AgreesWithReferenceOnAllRepresentations) {
  const Fixture fx;
  for (const Program* program :
       {&fx.universal, &fx.goto_program, &fx.metadata_program}) {
    auto sw = make(GetParam());
    ASSERT_TRUE(sw->load(*program).is_ok());
    for (const FlowKey& key : probe_keys(fx.gwlb, 400)) {
      const ExecResult want = execute_reference(*program, key);
      const ExecResult got = sw->process(key);
      ASSERT_EQ(want.hit, got.hit);
      if (want.hit) {
        ASSERT_EQ(want.out_port, got.out_port);
      }
    }
  }
}

TEST_P(SwitchAgreement, RepresentationsAgreeWithEachOther) {
  const Fixture fx;
  auto uni = make(GetParam());
  auto dec = make(GetParam());
  ASSERT_TRUE(uni->load(fx.universal).is_ok());
  ASSERT_TRUE(dec->load(fx.goto_program).is_ok());
  for (const FlowKey& key : probe_keys(fx.gwlb, 400)) {
    const ExecResult a = uni->process(key);
    const ExecResult b = dec->process(key);
    ASSERT_EQ(a.hit, b.hit);
    if (a.hit) {
      ASSERT_EQ(a.out_port, b.out_port);
    }
  }
}

TEST_P(SwitchAgreement, UpdateChangesForwarding) {
  const Fixture fx;
  auto sw = make(GetParam());
  ASSERT_TRUE(sw->load(fx.universal).is_ok());

  // Move service 0 to a new port: modify its first backend rule.
  const auto& svc = fx.gwlb.services[0];
  const FlowKey old_key = key_for_row(fx.gwlb.universal, 0);
  ASSERT_TRUE(sw->process(old_key).hit);

  RuleUpdate update;
  update.kind = RuleUpdate::Kind::kModify;
  update.table = 0;
  update.target = fx.universal.tables[0].rules[0].matches;
  update.rule = fx.universal.tables[0].rules[0];
  for (FieldMatch& m : update.rule.matches) {
    if (m.field == FieldId::kTcpDst) m.value = 9999;
  }
  ASSERT_TRUE(sw->apply_update(update).is_ok());

  // The rule's old (src-prefix, vip, port) key now misses...
  FlowKey moved = old_key;
  moved.set(FieldId::kTcpDst, 9999);
  EXPECT_TRUE(sw->process(moved).hit);
  // ...unless another rule (e.g. a /0 prefix of another tenant) covers
  // it; at minimum the new port must now hit, which we asserted.
  (void)svc;
}

TEST_P(SwitchAgreement, UpdateTargetingMissingRuleFails) {
  const Fixture fx;
  auto sw = make(GetParam());
  ASSERT_TRUE(sw->load(fx.universal).is_ok());
  RuleUpdate update;
  update.kind = RuleUpdate::Kind::kRemove;
  update.table = 0;
  update.target = {{FieldId::kIpDst, 424242, 0xffffffffULL}};
  const Status s = sw->apply_update(update);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

INSTANTIATE_TEST_SUITE_P(Models, SwitchAgreement,
                         ::testing::Values("eswitch", "lagopus", "ovs",
                                           "hw"));

TEST(OvsModel, CacheCollapsesPipeline) {
  const Fixture fx;
  auto sw = make_ovs_model();
  auto* ovs = dynamic_cast<OvsModelInterface*>(sw.get());
  ASSERT_NE(ovs, nullptr);
  ASSERT_TRUE(sw->load(fx.goto_program).is_ok());

  const FlowKey key = key_for_row(fx.gwlb.universal, 0);
  const ExecResult first = sw->process(key);
  EXPECT_TRUE(first.hit);
  EXPECT_GT(first.tables_visited, 1u);  // slow path walks the pipeline
  EXPECT_EQ(ovs->stats().cache_misses, 1u);

  const ExecResult second = sw->process(key);
  EXPECT_TRUE(second.hit);
  EXPECT_EQ(second.tables_visited, 1u);  // collapsed single lookup
  EXPECT_EQ(second.out_port, first.out_port);
  EXPECT_EQ(ovs->stats().cache_hits, 1u);
}

TEST(OvsModel, MegaflowMaskSharesEntriesAcrossSources) {
  // Within one backend's source prefix, different source addresses must
  // share a megaflow entry (the mask covers only the matched prefix
  // bits) — the cache does not explode per-microflow.
  const auto gwlb = workloads::make_paper_example();
  auto sw = make_ovs_model();
  auto* ovs = dynamic_cast<OvsModelInterface*>(sw.get());
  ASSERT_TRUE(
      sw->load(compile(core::Pipeline::single(gwlb.universal)).value())
          .is_ok());

  FlowKey a;
  a.set(FieldId::kIpSrc, ipv4(1, 2, 3, 4));  // inside 0.0.0.0/1
  a.set(FieldId::kIpDst, ipv4(192, 0, 2, 1));
  a.set(FieldId::kTcpDst, 80);
  FlowKey b = a;
  b.set(FieldId::kIpSrc, ipv4(9, 9, 9, 9));  // same /1 prefix

  EXPECT_TRUE(sw->process(a).hit);
  EXPECT_TRUE(sw->process(b).hit);
  EXPECT_EQ(ovs->stats().cache_misses, 1u);
  EXPECT_EQ(ovs->stats().cache_hits, 1u);
  EXPECT_EQ(ovs->stats().cache_entries, 1u);
}

TEST(OvsModel, UpdateFlushesCache) {
  const Fixture fx;
  auto sw = make_ovs_model();
  auto* ovs = dynamic_cast<OvsModelInterface*>(sw.get());
  ASSERT_TRUE(sw->load(fx.universal).is_ok());
  (void)sw->process(key_for_row(fx.gwlb.universal, 0));
  ASSERT_GE(ovs->stats().cache_entries, 1u);

  RuleUpdate update;
  update.kind = RuleUpdate::Kind::kModify;
  update.table = 0;
  update.target = fx.universal.tables[0].rules[0].matches;
  update.rule = fx.universal.tables[0].rules[0];
  ASSERT_TRUE(sw->apply_update(update).is_ok());
  EXPECT_EQ(ovs->stats().cache_entries, 0u);
  EXPECT_EQ(ovs->stats().cache_flushes, 1u);
}

TEST(HwModel, CostModelShapes) {
  HwTcamModel hw;
  // Latency grows with pipeline depth (Table 1: 6.4 → 8.4 µs).
  EXPECT_DOUBLE_EQ(hw.latency_us(1), 6.4);
  EXPECT_DOUBLE_EQ(hw.latency_us(2), 8.4);
  // Stall grows with both the touched-entry count and the table size.
  EXPECT_GT(hw.update_stall_seconds(8, 160), hw.update_stall_seconds(1, 20));
  // Fig. 4's headline: 100 intent updates/s on the universal table (8
  // rules each, 160-entry table) lose ~20× throughput; the normalized
  // pipeline (1 rule in a 20-entry table) loses almost nothing.
  const double universal_stall = 100 * hw.update_stall_seconds(8, 160);
  const double normalized_stall = 100 * hw.update_stall_seconds(1, 20);
  EXPECT_LT(hw.throughput_mpps(universal_stall),
            hw.line_rate_mpps() / 15.0);
  EXPECT_GT(hw.throughput_mpps(normalized_stall),
            hw.line_rate_mpps() * 0.95);
  // Saturation clamps at zero.
  EXPECT_DOUBLE_EQ(hw.throughput_mpps(1.5), 0.0);
}

TEST(HwModel, PipelineDepth) {
  const Fixture fx;
  HwTcamModel hw;
  ASSERT_TRUE(hw.load(fx.universal).is_ok());
  EXPECT_EQ(hw.pipeline_depth(), 1u);
  ASSERT_TRUE(hw.load(fx.goto_program).is_ok());
  EXPECT_EQ(hw.pipeline_depth(), 2u);
}

}  // namespace
}  // namespace maton::dp

// Cross-layer property: for random tables, the core pipeline evaluator,
// the reference program executor, and every switch model must implement
// the same packet-processing function — before and after normalization.
#include <gtest/gtest.h>

#include <set>

#include "core/equivalence.hpp"
#include "core/synthesis.hpp"
#include "dataplane/switch.hpp"
#include "util/rng.hpp"

namespace maton {
namespace {

/// Random exact-match table over three wire fields and two actions
/// (output port + one metadata-ish rewrite mapped to a register).
core::Table random_table(Rng& rng) {
  core::Schema schema;
  schema.add_match("ip_dst", core::ValueCodec::kIpv4);
  schema.add_match("tcp_dst", core::ValueCodec::kPort, 16);
  schema.add_action("pool", core::ValueCodec::kPlain, 16);
  schema.add_action("out", core::ValueCodec::kPort, 16);
  core::Table t("rand", std::move(schema));
  std::set<std::pair<core::Value, core::Value>> used;
  const std::size_t rows = 3 + rng.index(12);
  for (std::size_t r = 0; r < rows; ++r) {
    const core::Value dst = 0x0a000000 + rng.uniform(0, 5);
    const core::Value port = 1000 + rng.uniform(0, 3);
    if (!used.insert({dst, port}).second) continue;
    // Few pools → plenty of dependencies to normalize on.
    const core::Value pool = rng.uniform(0, 2);
    t.add_row(core::Row{dst, port, pool, 100 + pool});
  }
  return t;
}

dp::FlowKey key_from_packet(const core::PacketState& packet) {
  dp::FlowKey key;
  key.set(dp::FieldId::kIpDst, packet.at("ip_dst"));
  key.set(dp::FieldId::kTcpDst, packet.at("tcp_dst"));
  return key;
}

class CrossLayer : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(CrossLayer, CoreAndDataplaneAgreeThroughNormalization) {
  Rng rng(GetParam());
  const core::Table t = random_table(rng);

  const auto normalized =
      core::normalize(t, {.target = core::NormalForm::kBoyceCodd,
                          .join = core::JoinKind::kMetadata});
  ASSERT_TRUE(normalized.is_ok());
  const core::Pipeline& pipeline = normalized.value().pipeline;

  const auto program = dp::compile(pipeline);
  ASSERT_TRUE(program.is_ok()) << program.status().to_string();

  std::unique_ptr<dp::SwitchModel> models[] = {
      dp::make_eswitch_model(), dp::make_ovs_model(),
      dp::make_lagopus_model()};
  for (auto& sw : models) {
    ASSERT_TRUE(sw->load(program.value()).is_ok());
  }

  // Probe every entry plus misses.
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const core::PacketState packet = core::packet_for_row(t, r);
    const core::EvalResult core_result = pipeline.evaluate(packet);
    ASSERT_TRUE(core_result.hit);
    const dp::FlowKey key = key_from_packet(packet);
    const dp::ExecResult ref = dp::execute_reference(program.value(), key);
    ASSERT_TRUE(ref.hit);
    ASSERT_EQ(ref.out_port, core_result.actions.at("out"));
    for (auto& sw : models) {
      const dp::ExecResult got = sw->process(key);
      ASSERT_TRUE(got.hit) << sw->name();
      ASSERT_EQ(got.out_port, ref.out_port) << sw->name();
    }
  }
  for (int probe = 0; probe < 32; ++probe) {
    core::PacketState packet{
        {"ip_dst", 0x0a000000 + rng.uniform(0, 7)},
        {"tcp_dst", 1000 + rng.uniform(0, 5)}};
    const bool core_hit = pipeline.evaluate(packet).hit;
    const dp::FlowKey key = key_from_packet(packet);
    ASSERT_EQ(core_hit, dp::execute_reference(program.value(), key).hit);
    for (auto& sw : models) {
      ASSERT_EQ(core_hit, sw->process(key).hit) << sw->name();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, CrossLayer,
                         ::testing::Range<std::uint64_t>(700, 720));

}  // namespace
}  // namespace maton

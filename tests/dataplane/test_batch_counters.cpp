// Counter-preservation regression: batched processing bumps exactly the
// per-rule counters scalar processing does, and both preserve counts
// across a kModify carry-over (OpenFlow flow-stats semantics).
#include <gtest/gtest.h>

#include <vector>

#include "controlplane/compiler.hpp"
#include "dataplane/switch.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/traffic.hpp"

namespace maton::dp {
namespace {

struct Fixture {
  workloads::Gwlb gwlb;
  Program universal;
  Program goto_program;

  Fixture() {
    gwlb = workloads::make_gwlb(
        {.num_services = 6, .num_backends = 4, .seed = 9});
    universal = compile(core::Pipeline::single(gwlb.universal)).value();
    goto_program =
        compile(cp::pipeline_for(gwlb, cp::Representation::kGoto)).value();
  }
};

[[nodiscard]] std::unique_ptr<SwitchModel> make_model(
    std::string_view which) {
  if (which == "eswitch") return make_eswitch_model();
  if (which == "lagopus") return make_lagopus_model();
  if (which == "ovs") return make_ovs_model();
  return std::make_unique<HwTcamModel>();
}

/// Reads every rule's counter, in table order.
[[nodiscard]] std::vector<std::uint64_t> all_counters(
    const Program& program, const SwitchModel& sw) {
  std::vector<std::uint64_t> counts;
  for (std::size_t t = 0; t < program.tables.size(); ++t) {
    for (const Rule& rule : program.tables[t].rules) {
      const auto c = sw.read_rule_counter(t, rule.matches);
      counts.push_back(c.is_ok() ? c.value() : ~std::uint64_t{0});
    }
  }
  return counts;
}

class BatchCounters : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchCounters, BatchBumpsSameCountersAcrossModifyCarryOver) {
  const Fixture fx;
  for (const Program* program : {&fx.universal, &fx.goto_program}) {
    const auto keys = workloads::make_gwlb_keys(
        fx.gwlb, {.num_packets = 400, .hit_fraction = 0.8, .seed = 21});

    auto scalar_sw = make_model(GetParam());
    auto batch_sw = make_model(GetParam());
    ASSERT_TRUE(scalar_sw->load(*program).is_ok());
    ASSERT_TRUE(batch_sw->load(*program).is_ok());

    std::vector<ExecResult> results(keys.size());
    for (const FlowKey& key : keys) (void)scalar_sw->process(key);
    batch_sw->process_batch(keys, results);
    ASSERT_EQ(all_counters(*program, *scalar_sw),
              all_counters(*program, *batch_sw));

    // Modify service 0's first rule: move it to a fresh port. The
    // modified rule must inherit the old rule's count in both paths.
    RuleUpdate update;
    update.kind = RuleUpdate::Kind::kModify;
    update.table = 0;
    update.target = program->tables[0].rules[0].matches;
    update.rule = program->tables[0].rules[0];
    for (FieldMatch& m : update.rule.matches) {
      if (m.field == FieldId::kTcpDst) m.value = 9999;
    }
    ASSERT_TRUE(scalar_sw->apply_update(update).is_ok());
    ASSERT_TRUE(batch_sw->apply_update(update).is_ok());

    // The carried-over counter is visible under the *new* match vector.
    const auto carried_scalar =
        scalar_sw->read_rule_counter(0, update.rule.matches);
    const auto carried_batch =
        batch_sw->read_rule_counter(0, update.rule.matches);
    ASSERT_TRUE(carried_scalar.is_ok());
    ASSERT_TRUE(carried_batch.is_ok());
    EXPECT_EQ(carried_scalar.value(), carried_batch.value());

    // Keep processing after the update; counters must keep agreeing.
    Program updated = *program;
    ASSERT_TRUE(apply_update_to_program(updated, update).is_ok());
    for (const FlowKey& key : keys) (void)scalar_sw->process(key);
    batch_sw->process_batch(keys, results);
    ASSERT_EQ(all_counters(updated, *scalar_sw),
              all_counters(updated, *batch_sw));
  }
}

TEST_P(BatchCounters, MissHeavyBatchesBumpNothingSpurious) {
  const Fixture fx;
  const auto keys = workloads::make_gwlb_keys(
      fx.gwlb, {.num_packets = 300, .hit_fraction = 0.0, .seed = 33});
  auto scalar_sw = make_model(GetParam());
  auto batch_sw = make_model(GetParam());
  ASSERT_TRUE(scalar_sw->load(fx.goto_program).is_ok());
  ASSERT_TRUE(batch_sw->load(fx.goto_program).is_ok());

  std::vector<ExecResult> results(keys.size());
  for (const FlowKey& key : keys) (void)scalar_sw->process(key);
  batch_sw->process_batch(keys, results);
  EXPECT_EQ(all_counters(fx.goto_program, *scalar_sw),
            all_counters(fx.goto_program, *batch_sw));
}

INSTANTIATE_TEST_SUITE_P(Models, BatchCounters,
                         ::testing::Values("eswitch", "lagopus", "ovs",
                                           "hw"));

}  // namespace
}  // namespace maton::dp

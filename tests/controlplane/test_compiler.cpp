// §2 controllability / monitorability / atomicity arithmetic, pinned to
// the paper's claims for the Fig. 1 instance and checked for consistency
// at scale.
#include "controlplane/compiler.hpp"

#include <gtest/gtest.h>

#include "util/format.hpp"

namespace maton::cp {
namespace {

using workloads::make_gwlb;
using workloads::make_paper_example;

std::unique_ptr<GwlbBinding> bind(Representation repr) {
  return std::make_unique<GwlbBinding>(make_paper_example(), repr);
}

TEST(IntentCompiler, PaperExampleMovePortTenant1) {
  // §2: moving tenant 1 from HTTP to HTTPS "needs to update both of the
  // two entries [...] in the universal table, whereas in the normal form
  // modifying only one entry is enough".
  const MoveServicePort intent{.service = 0, .new_port = 443};

  auto universal = bind(Representation::kUniversal);
  const auto uni_updates = universal->compile_intent(intent);
  ASSERT_TRUE(uni_updates.is_ok());
  EXPECT_EQ(uni_updates.value().size(), 2u);

  for (const Representation repr :
       {Representation::kGoto, Representation::kMetadata,
        Representation::kRematch}) {
    auto normalized = bind(repr);
    const auto updates = normalized->compile_intent(intent);
    ASSERT_TRUE(updates.is_ok());
    EXPECT_EQ(updates.value().size(), 1u) << to_string(repr);
  }
}

TEST(IntentCompiler, MovePortScalesWithBackendsOnlyWhenUniversal) {
  // N=20, M=8 (§5 workload): the universal table needs M updates, the
  // normalized ones a single update — the 8× churn amplification that
  // drives Fig. 4.
  const auto gwlb = make_gwlb({.num_services = 20, .num_backends = 8});
  const MoveServicePort intent{.service = 7, .new_port = 4242};

  GwlbBinding universal(gwlb, Representation::kUniversal);
  const auto uni = universal.compile_intent(intent);
  ASSERT_TRUE(uni.is_ok());
  EXPECT_EQ(uni.value().size(), 8u);

  GwlbBinding normalized(gwlb, Representation::kGoto);
  const auto norm = normalized.compile_intent(intent);
  ASSERT_TRUE(norm.is_ok());
  EXPECT_EQ(norm.value().size(), 1u);
}

TEST(IntentCompiler, ChangeServiceIpRematchPaysForRematching) {
  // The rematch join re-states ip_dst in the second table, so changing
  // the VIP touches 1 + M entries — worse than goto/metadata (1) and no
  // better than the universal table (M).
  const auto gwlb = make_gwlb({.num_services = 4, .num_backends = 4});
  const ChangeServiceIp intent{.service = 1, .new_vip = ipv4(198, 19, 0, 9)};

  GwlbBinding universal(gwlb, Representation::kUniversal);
  EXPECT_EQ(universal.compile_intent(intent).value().size(), 4u);
  GwlbBinding goto_b(gwlb, Representation::kGoto);
  EXPECT_EQ(goto_b.compile_intent(intent).value().size(), 1u);
  GwlbBinding meta(gwlb, Representation::kMetadata);
  EXPECT_EQ(meta.compile_intent(intent).value().size(), 1u);
  GwlbBinding rematch(gwlb, Representation::kRematch);
  EXPECT_EQ(rematch.compile_intent(intent).value().size(), 5u);
}

TEST(IntentCompiler, ChangeBackendIsRepresentationAgnostic) {
  const auto gwlb = make_gwlb({.num_services = 4, .num_backends = 4});
  const ChangeBackend intent{.service = 0, .backend = 2, .new_out = 777};
  for (const Representation repr :
       {Representation::kUniversal, Representation::kGoto,
        Representation::kMetadata, Representation::kRematch}) {
    GwlbBinding binding(gwlb, repr);
    const auto updates = binding.compile_intent(intent);
    ASSERT_TRUE(updates.is_ok()) << to_string(repr);
    EXPECT_EQ(updates.value().size(), 1u) << to_string(repr);
  }
}

TEST(IntentCompiler, RemoveServiceCosts) {
  const auto gwlb = make_gwlb({.num_services = 4, .num_backends = 4});
  const RemoveService intent{.service = 2};

  GwlbBinding universal(gwlb, Representation::kUniversal);
  EXPECT_EQ(universal.compile_intent(intent).value().size(), 4u);
  // Normalized: the service entry plus its per-backend entries.
  GwlbBinding goto_b(gwlb, Representation::kGoto);
  EXPECT_EQ(goto_b.compile_intent(intent).value().size(), 5u);
}

TEST(IntentCompiler, UpdatesAreApplicable) {
  // The emitted updates must be accepted by a switch running the old
  // program, and the updated switch must equal a freshly loaded one.
  const auto gwlb = make_gwlb({.num_services = 6, .num_backends = 4});
  for (const Representation repr :
       {Representation::kUniversal, Representation::kGoto,
        Representation::kMetadata, Representation::kRematch}) {
    GwlbBinding binding(gwlb, repr);
    auto sw = dp::make_eswitch_model();
    ASSERT_TRUE(sw->load(binding.program()).is_ok());

    const MoveServicePort intent{.service = 3, .new_port = 50505};
    const auto updates = binding.compile_intent(intent);
    ASSERT_TRUE(updates.is_ok()) << to_string(repr);
    for (const dp::RuleUpdate& u : updates.value()) {
      ASSERT_TRUE(sw->apply_update(u).is_ok()) << to_string(repr);
    }

    // New-port traffic must now hit.
    dp::FlowKey key;
    key.set(dp::FieldId::kIpSrc, 0);
    key.set(dp::FieldId::kIpDst, binding.gwlb().services[3].vip);
    key.set(dp::FieldId::kTcpDst, 50505);
    EXPECT_TRUE(sw->process(key).hit) << to_string(repr);
    // Old-port traffic must miss.
    key.set(dp::FieldId::kTcpDst, gwlb.services[3].port);
    EXPECT_FALSE(sw->process(key).hit) << to_string(repr);
  }
}

TEST(IntentCompiler, SequentialIntentsStayConsistent) {
  const auto gwlb = make_gwlb({.num_services = 4, .num_backends = 2});
  GwlbBinding binding(gwlb, Representation::kGoto);
  auto sw = dp::make_eswitch_model();
  ASSERT_TRUE(sw->load(binding.program()).is_ok());

  const Intent intents[] = {
      Intent{MoveServicePort{.service = 0, .new_port = 1111}},
      Intent{ChangeServiceIp{.service = 0, .new_vip = ipv4(198, 19, 1, 1)}},
      Intent{MoveServicePort{.service = 0, .new_port = 2222}},
      Intent{ChangeBackend{.service = 0, .backend = 1, .new_out = 99}},
  };
  for (const Intent& intent : intents) {
    const auto updates = binding.compile_intent(intent);
    ASSERT_TRUE(updates.is_ok()) << to_string(intent);
    for (const dp::RuleUpdate& u : updates.value()) {
      ASSERT_TRUE(sw->apply_update(u).is_ok()) << to_string(intent);
    }
  }
  dp::FlowKey key;
  key.set(dp::FieldId::kIpSrc, 0x80000000ULL);  // second half of sources
  key.set(dp::FieldId::kIpDst, ipv4(198, 19, 1, 1));
  key.set(dp::FieldId::kTcpDst, 2222);
  const auto result = sw->process(key);
  EXPECT_TRUE(result.hit);
  EXPECT_EQ(result.out_port, 99u);
}

TEST(IntentCompiler, InvalidIntentsAreRejected) {
  auto binding = bind(Representation::kGoto);
  EXPECT_FALSE(
      binding->compile_intent(MoveServicePort{.service = 99}).is_ok());
  EXPECT_FALSE(
      binding->compile_intent(ChangeBackend{.service = 0, .backend = 99})
          .is_ok());
  ASSERT_TRUE(binding->compile_intent(RemoveService{.service = 0}).is_ok());
  // Intents against the removed service fail.
  const auto again =
      binding->compile_intent(MoveServicePort{.service = 0, .new_port = 1});
  ASSERT_FALSE(again.is_ok());
  EXPECT_EQ(again.status().code(), StatusCode::kFailedPrecondition);
}

/// §2 monitorability and atomicity exposure of tenant 2 (three backends)
/// on the paper example, per representation.
struct Exposure {
  Representation repr;
  std::size_t counters;
  std::size_t aggregation_steps;
  std::size_t identity_entries;
};

constexpr Exposure kTenant2[] = {
    // Universal: 3 counters + controller-side summing; VIP:port repeated
    // per backend entry.
    {Representation::kUniversal, 3, 2, 3},
    // Normal forms: one counter on the single service entry; the
    // identity is stated once in the service table...
    {Representation::kGoto, 1, 0, 1},
    {Representation::kMetadata, 1, 0, 1},
    // ...except that rematch re-states the VIP per backend entry.
    {Representation::kRematch, 1, 0, 4},
};

TEST(MonitorPlans, PaperExampleTenant2) {
  // §2: monitoring tenant 2 takes 3 counters + controller-side summing on
  // the universal table, one counter on the normal form.
  for (const Exposure& e : kTenant2) {
    const MonitorPlan plan = bind(e.repr)->monitor_plan(1);
    EXPECT_EQ(plan.counters, e.counters) << to_string(e.repr);
    EXPECT_EQ(plan.aggregation_steps, e.aggregation_steps)
        << to_string(e.repr);
  }
}

TEST(IdentityEntries, AtomicityExposure) {
  for (const Exposure& e : kTenant2) {
    EXPECT_EQ(bind(e.repr)->identity_entries(1), e.identity_entries)
        << to_string(e.repr);
  }
}

TEST(IdentityEntries, RemovedServiceHoldsNoEntries) {
  // A removed service has no entry left in any representation, so there
  // is nothing to count and nothing to keep consistent.
  for (const Exposure& e : kTenant2) {
    auto binding = bind(e.repr);
    ASSERT_TRUE(binding->compile_intent(RemoveService{.service = 1}).is_ok());
    const MonitorPlan plan = binding->monitor_plan(1);
    EXPECT_EQ(plan.counters, 0u) << to_string(e.repr);
    EXPECT_EQ(plan.aggregation_steps, 0u) << to_string(e.repr);
    EXPECT_EQ(binding->identity_entries(1), 0u) << to_string(e.repr);
  }
}

TEST(IntentCompiler, IntentToString) {
  EXPECT_EQ(to_string(Intent{MoveServicePort{.service = 2, .new_port = 80}}),
            "move-service-port(service=2, port=80)");
  EXPECT_EQ(to_string(Intent{RemoveService{.service = 1}}),
            "remove-service(service=1)");
}

}  // namespace
}  // namespace maton::cp

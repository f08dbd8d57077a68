// Proof-gated compilation: VerifyMode::kSymbolic makes the binding prove
// the live program equivalent to a fresh reference after every compile,
// and the symbolic slice-isolation proofs keep deliberately colliding
// VIPs on the incremental path (the old blanket VIP-uniqueness guard
// demoted roughly half of all intents at 32 services under the soak's
// collision mix).
#include <gtest/gtest.h>

#include <string>

#include "controlplane/churn.hpp"
#include "controlplane/compiler.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace maton::cp {
namespace {

using workloads::Gwlb;
using workloads::make_gwlb;

TEST(SymbolicVerify, InitialBuildIsProven) {
  const Gwlb gwlb = make_gwlb({.num_services = 8, .num_backends = 4});
  for (const Representation repr :
       {Representation::kUniversal, Representation::kGoto,
        Representation::kMetadata, Representation::kRematch}) {
    GwlbBinding binding(gwlb, repr, CompileMode::kIncremental,
                        AnalyzeMode::kOff, VerifyMode::kSymbolic);
    EXPECT_EQ(binding.verify_mode(), VerifyMode::kSymbolic);
    EXPECT_EQ(binding.verify_stats().verified, 1u) << to_string(repr);
    EXPECT_EQ(binding.verify_stats().failed, 0u) << to_string(repr);
    EXPECT_EQ(binding.verify_stats().unknown, 0u) << to_string(repr);
    EXPECT_TRUE(binding.last_verify_note().empty()) << to_string(repr);
  }
}

TEST(SymbolicVerify, VerifiesBothCompilePaths) {
  const Gwlb gwlb = make_gwlb({.num_services = 8, .num_backends = 4});
  for (const CompileMode mode :
       {CompileMode::kIncremental, CompileMode::kFullRebuild}) {
    GwlbBinding binding(gwlb, Representation::kMetadata, mode,
                        AnalyzeMode::kOff, VerifyMode::kSymbolic);
    ASSERT_TRUE(binding
                    .compile_intent(
                        MoveServicePort{.service = 3, .new_port = 50123})
                    .is_ok());
    ASSERT_TRUE(binding
                    .compile_intent(ChangeBackend{
                        .service = 1, .backend = 2, .new_out = 4242})
                    .is_ok());
    EXPECT_EQ(binding.verify_stats().verified, 3u);  // build + 2 intents
    EXPECT_EQ(binding.verify_stats().failed, 0u);
  }
}

TEST(SymbolicVerify, CollisionChurnStaysIncrementalAndProven) {
  // 32 services, the soak's mixed-intent draw with the deliberate
  // VIP-collision probability cranked to 50%: every post-collision state
  // used to demote to the full rebuild until the collision cleared
  // (~half of all intents fell back). The isolation proofs — colliding
  // services still differ in tcp_dst, so their slices are disjoint in
  // every table — keep the whole trace on the delta path, and every
  // patched program is proven equivalent to its reference.
  const Gwlb gwlb = make_gwlb({.num_services = 32, .num_backends = 4});
  GwlbBinding binding(gwlb, Representation::kGoto,
                      CompileMode::kIncremental, AnalyzeMode::kOff,
                      VerifyMode::kSymbolic);

  Rng rng(7);
  MixedChurnConfig mix;
  mix.vip_collision_probability = 0.5;
  constexpr std::size_t kIntents = 200;
  for (std::size_t i = 0; i < kIntents; ++i) {
    const Intent intent = draw_mixed_intent(rng, binding.gwlb(), mix);
    ASSERT_TRUE(binding.compile_intent(intent).is_ok())
        << "intent " << i << ": " << to_string(intent);
  }

  const VerifyStats verify = binding.verify_stats();
  EXPECT_EQ(verify.verified, 1u + kIntents);
  EXPECT_EQ(verify.failed, 0u);
  EXPECT_EQ(verify.unknown, 0u);
  EXPECT_TRUE(binding.last_verify_note().empty());

  const IncrementalStats inc = binding.incremental_stats();
  EXPECT_EQ(inc.hits + inc.fallbacks, kIntents);
  EXPECT_EQ(inc.fallbacks,
            inc.vip_collision_fallbacks + inc.slice_validation_fallbacks);
  const double ratio =
      static_cast<double>(inc.fallbacks) / static_cast<double>(kIntents);
  EXPECT_LT(ratio, 0.1) << "fallbacks: " << inc.fallbacks;
}

/// Samples so far in maton_cp_intent_phase_ns{phase, intent, repr}.
std::uint64_t phase_count(const char* phase, const char* intent,
                          Representation repr) {
  return obs::MetricRegistry::global()
      .histogram("maton_cp_intent_phase_ns",
                 {{"phase", phase},
                  {"intent", intent},
                  {"repr", std::string(to_string(repr))}})
      .totals()
      .count;
}

TEST(SymbolicVerify, EachVerifiedIntentRecordsEveryPhase) {
  // maton_cp_intent_phase_ns{phase, intent, repr}: one delta, one refresh
  // and one prove sample per verified intent, under the intent's own
  // label, on both compile paths; the initial proof at construction
  // records none. The registry is process-wide, so the test reads deltas.
  const Gwlb gwlb = make_gwlb({.num_services = 8, .num_backends = 4});
  constexpr const char* kPhases[] = {"delta", "refresh", "prove"};
  constexpr const char* kIntents[] = {"port", "ip", "backend", "remove"};
  for (const Representation repr :
       {Representation::kGoto, Representation::kUniversal}) {
    std::uint64_t before[3][4];
    for (int p = 0; p < 3; ++p) {
      for (int i = 0; i < 4; ++i) {
        before[p][i] = phase_count(kPhases[p], kIntents[i], repr);
      }
    }
    for (const CompileMode mode :
         {CompileMode::kIncremental, CompileMode::kFullRebuild}) {
      GwlbBinding binding(gwlb, repr, mode, AnalyzeMode::kOff,
                          VerifyMode::kSymbolic);
      for (std::uint64_t out = 1; out <= 5; ++out) {
        ASSERT_TRUE(
            binding.compile_intent(ChangeBackend{out % 8, 0, 700 + out})
                .is_ok());
      }
      ASSERT_TRUE(
          binding.compile_intent(MoveServicePort{.service = 2,
                                                 .new_port = 40001})
              .is_ok());
      ASSERT_TRUE(
          binding.compile_intent(ChangeServiceIp{.service = 3,
                                                 .new_vip = 0xc6130001u})
              .is_ok());
      ASSERT_TRUE(binding.compile_intent(RemoveService{.service = 6}).is_ok());
      EXPECT_EQ(binding.verify_stats().verified, 9u);
    }
    if constexpr (obs::kEnabled) {
      // Per compile path: 1 port, 1 ip, 5 backend and 1 remove intent.
      constexpr std::uint64_t kWant[] = {2, 2, 10, 2};
      for (int p = 0; p < 3; ++p) {
        for (int i = 0; i < 4; ++i) {
          EXPECT_EQ(phase_count(kPhases[p], kIntents[i], repr) - before[p][i],
                    kWant[i])
              << to_string(repr) << " " << kPhases[p] << " " << kIntents[i];
        }
      }
    }
  }
}

TEST(SymbolicVerify, AnUnprovenRemovalRecordsOnlyItsDelta) {
  // Without proofs a removal's cost is its delta phase alone, a live
  // histogram of its own next to the other intents'.
  const Gwlb gwlb = make_gwlb({.num_services = 16, .num_backends = 4});
  for (const Representation repr :
       {Representation::kUniversal, Representation::kGoto}) {
    const std::uint64_t delta0 = phase_count("delta", "remove", repr);
    const std::uint64_t refresh0 = phase_count("refresh", "remove", repr);
    const std::uint64_t prove0 = phase_count("prove", "remove", repr);
    const std::uint64_t port0 = phase_count("delta", "port", repr);
    GwlbBinding binding(gwlb, repr, CompileMode::kIncremental);
    ASSERT_TRUE(binding.compile_intent(RemoveService{.service = 5}).is_ok());
    ASSERT_TRUE(binding.compile_intent(RemoveService{.service = 9}).is_ok());
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(phase_count("delta", "remove", repr) - delta0, 2u)
          << to_string(repr);
      EXPECT_EQ(phase_count("refresh", "remove", repr) - refresh0, 0u)
          << to_string(repr);
      EXPECT_EQ(phase_count("prove", "remove", repr) - prove0, 0u)
          << to_string(repr);
      EXPECT_EQ(phase_count("delta", "port", repr) - port0, 0u)
          << to_string(repr);
    }
  }
}

}  // namespace
}  // namespace maton::cp

// Differential harness gating the incremental intent compiler: over long
// randomized churn traces the delta-scoped path must be bit-identical to
// the full rebuild+diff reference — same update sequences, same patched
// program, same switch state — across all four representations.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "controlplane/compiler.hpp"
#include "util/contract.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace maton::cp {

/// Befriended by GwlbBinding: compares the indexes the delta path keeps
/// in place (provenance, slice index, row offsets).
struct GwlbBindingInternals {
  static bool indexes_equal(const GwlbBinding& a, const GwlbBinding& b) {
    return a.provenance_ == b.provenance_ &&
           a.slice_index_ == b.slice_index_ &&
           a.row_offsets_ == b.row_offsets_;
  }
};

namespace {

using workloads::Gwlb;
using workloads::make_gwlb;

constexpr Representation kAllReprs[] = {
    Representation::kUniversal, Representation::kGoto,
    Representation::kMetadata, Representation::kRematch};

bool updates_equal(const std::vector<dp::RuleUpdate>& a,
                   const std::vector<dp::RuleUpdate>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].kind != b[i].kind || a[i].table != b[i].table ||
        a[i].target != b[i].target || !(a[i].rule == b[i].rule)) {
      return false;
    }
  }
  return true;
}

/// Draws a random intent. VIPs come from a private counter in
/// 198.19.0.0/16 (make_gwlb allocates from 198.18.0.0/15; this range is
/// never reused), so ChangeServiceIp never collides and the incremental
/// path stays on its fast path. Ports rotate through the ephemeral
/// range. Removals are capped at a quarter of the fleet — services never
/// come back, and intents drawn against an already-removed service are
/// kept in the trace on purpose (they exercise the failed-intent no-op
/// path on both compilers).
class IntentSource {
 public:
  explicit IntentSource(std::uint64_t seed, std::size_t services,
                        std::size_t backends)
      : rng_(seed), services_(services), backends_(backends),
        removals_left_(services / 4) {}

  Intent next() {
    const std::size_t service = rng_.index(services_);
    switch (rng_.uniform(0, 9)) {
      case 0:
        if (removals_left_ > 0) {
          --removals_left_;
          return RemoveService{.service = service};
        }
        [[fallthrough]];
      case 1:
      case 2:
      case 3:
        return ChangeServiceIp{.service = service,
                               .new_vip = next_unique_vip()};
      case 4:
      case 5:
      case 6:
        return ChangeBackend{
            .service = service,
            .backend = rng_.index(backends_),
            .new_out = 100000 + vip_counter_ + rng_.uniform(0, 7)};
      default:
        return MoveServicePort{
            .service = service,
            .new_port = static_cast<std::uint16_t>(
                49152 + rng_.uniform(0, 16382))};
    }
  }

 private:
  std::uint32_t next_unique_vip() {
    ++vip_counter_;
    return ipv4(198, 19, (vip_counter_ >> 8) & 0xff, vip_counter_ & 0xff);
  }

  Rng rng_;
  std::size_t services_;
  std::size_t backends_;
  std::size_t removals_left_;
  std::uint64_t vip_counter_ = 0;
};

/// Replays `num_intents` random intents through an incremental binding
/// and a full-rebuild reference binding in lockstep, checking after every
/// step that the update sequence, the patched program, and the state of a
/// switch driven by the updates are identical.
void run_churn_differential(Representation repr, std::size_t num_services,
                            std::size_t num_backends,
                            std::size_t num_intents, std::uint64_t seed) {
  const Gwlb gwlb = make_gwlb({.num_services = num_services,
                               .num_backends = num_backends,
                               .seed = seed});
  GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
  GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild);
  ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);

  dp::HwTcamModel sw_inc;
  dp::HwTcamModel sw_ref;
  ASSERT_TRUE(sw_inc.load(inc.program()).is_ok());
  ASSERT_TRUE(sw_ref.load(ref.program()).is_ok());

  IntentSource source(seed * 7919 + 1, num_services, num_backends);
  std::size_t applied = 0;
  for (std::size_t step = 0; step < num_intents; ++step) {
    const Intent intent = source.next();
    const auto got = inc.compile_intent(intent);
    const auto want = ref.compile_intent(intent);
    ASSERT_EQ(got.is_ok(), want.is_ok())
        << to_string(repr) << " step " << step << ": " << to_string(intent);
    if (!got.is_ok()) {
      // Failed intents must be no-ops on both sides.
      EXPECT_EQ(got.status().code(), want.status().code());
      ASSERT_TRUE(inc.program() == ref.program());
      continue;
    }
    ++applied;
    ASSERT_TRUE(updates_equal(got.value(), want.value()))
        << to_string(repr) << " step " << step << ": " << to_string(intent);
    ASSERT_TRUE(inc.program() == ref.program())
        << to_string(repr) << " step " << step << ": " << to_string(intent);

    // The incremental updates, applied batched, must leave the switch in
    // the same state as the reference updates applied one at a time.
    ASSERT_TRUE(sw_inc.apply_updates(got.value()).is_ok());
    for (const dp::RuleUpdate& u : want.value()) {
      ASSERT_TRUE(sw_ref.apply_update(u).is_ok());
    }
    ASSERT_TRUE(sw_inc.program() == sw_ref.program())
        << to_string(repr) << " step " << step;
    ASSERT_TRUE(sw_inc.program() == inc.program())
        << to_string(repr) << " step " << step;
  }

  // The trace avoids VIP collisions, so every applied intent must have
  // taken the delta path — zero fallbacks.
  EXPECT_EQ(inc.incremental_stats().hits, applied) << to_string(repr);
  EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);
  EXPECT_EQ(ref.incremental_stats().hits, 0u);
  EXPECT_GT(applied, num_intents / 2);
}

class IncrementalChurn
    : public ::testing::TestWithParam<Representation> {};

TEST_P(IncrementalChurn, FiveHundredIntentTraceMatchesReference) {
  run_churn_differential(GetParam(), /*num_services=*/10,
                         /*num_backends=*/4, /*num_intents=*/500,
                         /*seed=*/11);
}

TEST_P(IncrementalChurn, SmallInstanceDeepTrace) {
  run_churn_differential(GetParam(), /*num_services=*/3,
                         /*num_backends=*/2, /*num_intents=*/200,
                         /*seed=*/23);
}

INSTANTIATE_TEST_SUITE_P(AllRepresentations, IncrementalChurn,
                         ::testing::ValuesIn(kAllReprs),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(IncrementalCompile, RemoveThenRetargetEdgeCases) {
  for (const Representation repr : kAllReprs) {
    const Gwlb gwlb = make_gwlb({.num_services = 4, .num_backends = 4});
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild);

    // Remove service 1, then try to retarget it: every intent against
    // the removed service must fail identically and change nothing.
    ASSERT_TRUE(inc.compile_intent(RemoveService{.service = 1}).is_ok());
    ASSERT_TRUE(ref.compile_intent(RemoveService{.service = 1}).is_ok());
    ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);

    const Intent retargets[] = {
        Intent{MoveServicePort{.service = 1, .new_port = 8080}},
        Intent{ChangeServiceIp{.service = 1, .new_vip = ipv4(198, 19, 9, 9)}},
        Intent{ChangeBackend{.service = 1, .backend = 0, .new_out = 7}},
        Intent{RemoveService{.service = 1}},
    };
    for (const Intent& intent : retargets) {
      const dp::Program before = inc.program();
      const auto got = inc.compile_intent(intent);
      const auto want = ref.compile_intent(intent);
      ASSERT_FALSE(got.is_ok()) << to_string(repr) << " " << to_string(intent);
      EXPECT_EQ(got.status().code(), StatusCode::kFailedPrecondition);
      EXPECT_EQ(want.status().code(), StatusCode::kFailedPrecondition);
      ASSERT_TRUE(inc.program() == before) << to_string(intent);
    }

    // Neighbouring services remain fully retargetable on the delta path.
    const auto after = inc.compile_intent(
        MoveServicePort{.service = 2, .new_port = 50000});
    ASSERT_TRUE(after.is_ok()) << to_string(repr);
    ASSERT_TRUE(
        ref.compile_intent(MoveServicePort{.service = 2, .new_port = 50000})
            .is_ok());
    ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);
  }
}

TEST(IncrementalCompile, VipCollisionFallsBackAndStaysCorrect) {
  // Pointing one service at another's VIP used to demote every intent in
  // the colliding state to the full-rebuild path. The symbolic
  // slice-isolation proof now clears collisions whose slices cannot
  // alias: the colliding services still differ in tcp_dst (and every
  // gwlb rule carries its service's port or tag), so their match regions
  // are provably disjoint in every affected table and the delta path
  // stays on, bit-identical to the reference.
  const Gwlb gwlb = make_gwlb({.num_services = 4, .num_backends = 2});
  ASSERT_NE(gwlb.services[0].port, gwlb.services[2].port);
  for (const Representation repr : kAllReprs) {
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild);
    const ChangeServiceIp collide{.service = 2,
                                  .new_vip = gwlb.services[0].vip};
    if (repr == Representation::kRematch) {
      // Rematch's LB stage re-matches (ip_src, ip_dst), and make_gwlb
      // gives every service the same src splits, so two live services on
      // one VIP produce *identical* LB keys: the slices provably
      // intersect, the delta path falls back (cause: vip_collision), and
      // the rebuild rejects the duplicate-key pipeline with an error
      // status — in both modes.
      EXPECT_FALSE(inc.compile_intent(collide).is_ok());
      EXPECT_FALSE(ref.compile_intent(collide).is_ok());
      EXPECT_EQ(inc.incremental_stats().vip_collision_fallbacks, 1u);
      EXPECT_EQ(inc.incremental_stats().slice_validation_fallbacks, 0u);
      continue;
    }
    const auto got = inc.compile_intent(collide);
    const auto want = ref.compile_intent(collide);
    ASSERT_TRUE(got.is_ok());
    ASSERT_TRUE(want.is_ok());
    ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().hits, 1u) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);

    // The collision persists; intents on uninvolved services have no
    // partners to prove against, and even the colliding pair's own
    // intents carry their isolation proofs.
    ASSERT_TRUE(inc.compile_intent(
                       MoveServicePort{.service = 1, .new_port = 50001})
                    .is_ok());
    ASSERT_TRUE(ref.compile_intent(
                       MoveServicePort{.service = 1, .new_port = 50001})
                    .is_ok());
    // Clearing the collision diffs against the still-colliding pre-state;
    // the proof covers before ∪ after, so it stays delta-scoped too.
    ASSERT_TRUE(inc.compile_intent(ChangeServiceIp{
                       .service = 2, .new_vip = ipv4(198, 19, 200, 1)})
                    .is_ok());
    ASSERT_TRUE(ref.compile_intent(ChangeServiceIp{
                       .service = 2, .new_vip = ipv4(198, 19, 200, 1)})
                    .is_ok());
    ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().hits, 3u) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);
  }
}

TEST(IncrementalCompile, RematchCollisionIsAnErrorThatChangesNothing) {
  // A VIP collision rematch cannot express must come back as a status,
  // with the binding exactly as a fresh full rebuild of the unchanged
  // fleet would have it, and still usable afterwards.
  const Gwlb gwlb = make_gwlb({.num_services = 4, .num_backends = 2});
  const ChangeServiceIp collide{.service = 2,
                                .new_vip = gwlb.services[0].vip};
  const MoveServicePort next{.service = 1, .new_port = 50001};
  for (const CompileMode mode :
       {CompileMode::kIncremental, CompileMode::kFullRebuild}) {
    GwlbBinding binding(gwlb, Representation::kRematch, mode);
    const auto rejected = binding.compile_intent(collide);
    ASSERT_FALSE(rejected.is_ok());
    EXPECT_FALSE(rejected.status().message().empty());

    GwlbBinding fresh(gwlb, Representation::kRematch,
                      CompileMode::kFullRebuild);
    EXPECT_TRUE(binding.program() == fresh.program());
    EXPECT_EQ(binding.gwlb().services[2].vip, gwlb.services[2].vip);
    EXPECT_TRUE(binding.gwlb().universal == fresh.gwlb().universal);

    const auto got = binding.compile_intent(next);
    const auto want = fresh.compile_intent(next);
    ASSERT_TRUE(got.is_ok());
    ASSERT_TRUE(want.is_ok());
    EXPECT_TRUE(updates_equal(got.value(), want.value()));
    EXPECT_TRUE(binding.program() == fresh.program());
  }
}

TEST(IncrementalCompile, PinnedUpdateCountsMatchFullRebuild) {
  // The §2 controllability pins (tests/controlplane/test_compiler.cpp)
  // run through the default mode; double-check the two modes agree on
  // the exact counts for every intent kind.
  const Gwlb gwlb = make_gwlb({.num_services = 4, .num_backends = 4});
  const Intent intents[] = {
      Intent{MoveServicePort{.service = 0, .new_port = 50100}},
      Intent{ChangeServiceIp{.service = 1, .new_vip = ipv4(198, 19, 3, 3)}},
      Intent{ChangeBackend{.service = 2, .backend = 3, .new_out = 4242}},
      Intent{RemoveService{.service = 3}},
  };
  for (const Representation repr : kAllReprs) {
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild);
    for (const Intent& intent : intents) {
      const auto got = inc.compile_intent(intent);
      const auto want = ref.compile_intent(intent);
      ASSERT_TRUE(got.is_ok() && want.is_ok()) << to_string(repr);
      ASSERT_TRUE(updates_equal(got.value(), want.value()))
          << to_string(repr) << " " << to_string(intent);
    }
  }
}

TEST(IncrementalCompile, ShrinkingSliceRemovalMatchesReference) {
  // Regression for the slow-path merge's buffer pre-sizing: it reserves
  // size() + |after| − |before|, which must be evaluated in that order
  // (and guarded by |before| ≤ size()) because a shrinking slice —
  // service removal is the maximal case, |after| = 0 — underflows the
  // naive size() − |before| + |after| whenever an invariant breach makes
  // the slice larger than its table. Removals must stay on the delta
  // path and splice out exactly the service's slice in every table.
  for (const Representation repr : kAllReprs) {
    const Gwlb gwlb = make_gwlb({.num_services = 6, .num_backends = 8});
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild);

    const std::size_t total_before = inc.program().total_rules();
    // Largest shrink first, then edges of the service array, then a
    // retarget of a survivor to prove the rebuilt slice index is sound.
    for (const std::size_t victim : {5, 0, 3}) {
      const auto got = inc.compile_intent(RemoveService{.service = victim});
      const auto want = ref.compile_intent(RemoveService{.service = victim});
      ASSERT_TRUE(got.is_ok() && want.is_ok())
          << to_string(repr) << " removing " << victim;
      ASSERT_TRUE(updates_equal(got.value(), want.value()))
          << to_string(repr) << " removing " << victim;
      ASSERT_TRUE(inc.program() == ref.program())
          << to_string(repr) << " removing " << victim;
    }
    EXPECT_LT(inc.program().total_rules(), total_before) << to_string(repr);

    ASSERT_TRUE(inc.compile_intent(
                       MoveServicePort{.service = 1, .new_port = 50777})
                    .is_ok());
    ASSERT_TRUE(ref.compile_intent(
                       MoveServicePort{.service = 1, .new_port = 50777})
                    .is_ok());
    ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().hits, 4u) << to_string(repr);
  }
}

TEST(IncrementalCompile, RemoveServiceKeepsIndexesEqualToARebuild) {
  // The removal splice erases the service's positions from the program,
  // provenance and slice index in place; what it leaves must be exactly
  // what a full compile of the service model derives.
  const auto rebuilt = [](const GwlbBinding& binding) {
    return GwlbBinding(binding.gwlb(), binding.representation(),
                       CompileMode::kFullRebuild);
  };
  for (const Representation repr : kAllReprs) {
    const Gwlb gwlb = make_gwlb({.num_services = 12, .num_backends = 4});
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    for (const std::size_t victim : {4, 0, 11, 5}) {
      ASSERT_TRUE(inc.compile_intent(RemoveService{.service = victim}).is_ok())
          << to_string(repr) << " removing " << victim;
      ASSERT_TRUE(GwlbBindingInternals::indexes_equal(inc, rebuilt(inc)))
          << to_string(repr) << " removing " << victim;
    }
    ASSERT_TRUE(
        inc.compile_intent(MoveServicePort{.service = 6, .new_port = 50123})
            .is_ok());
    EXPECT_TRUE(GwlbBindingInternals::indexes_equal(inc, rebuilt(inc)))
        << to_string(repr);
    EXPECT_EQ(inc.incremental_stats().fallbacks, 0u) << to_string(repr);
  }
}

TEST(DiffPrograms, ModifyPairingSemantics) {
  // The O(n) hash-multiset diff must reproduce the pairing the original
  // quadratic scan defined: per table, each old rule consumes the first
  // unmatched equal new rule; leftovers pair up as modifies in order,
  // the remainder becomes removes then inserts.
  auto rule = [](std::uint32_t prio, std::uint64_t dst, std::uint64_t out) {
    dp::Rule r;
    r.priority = prio;
    r.matches.push_back({dp::FieldId::kIpDst, dst, ~std::uint64_t{0}});
    r.actions.push_back({dp::Action::Kind::kOutput, dp::FieldId::kMeta0, out});
    return r;
  };
  dp::Program before;
  before.tables.push_back({"t", {dp::FieldId::kIpDst}, {}, std::nullopt});
  dp::Program after = before;
  // Old: A, B, C. New: B, D, E — A pairs with D (first unmatched), C
  // with E; B survives unchanged.
  before.tables[0].rules = {rule(3, 1, 10), rule(2, 2, 20), rule(1, 3, 30)};
  after.tables[0].rules = {rule(2, 2, 20), rule(3, 4, 40), rule(1, 5, 50)};

  const auto updates = diff_programs(before, after);
  ASSERT_EQ(updates.size(), 2u);
  EXPECT_EQ(updates[0].kind, dp::RuleUpdate::Kind::kModify);
  EXPECT_EQ(updates[0].target, before.tables[0].rules[0].matches);
  EXPECT_TRUE(updates[0].rule == after.tables[0].rules[1]);
  EXPECT_EQ(updates[1].kind, dp::RuleUpdate::Kind::kModify);
  EXPECT_EQ(updates[1].target, before.tables[0].rules[2].matches);
  EXPECT_TRUE(updates[1].rule == after.tables[0].rules[2]);

  // Duplicate rules: multiset semantics, FIFO pairing.
  dp::Program dup_before = before;
  dp::Program dup_after = before;
  dup_before.tables[0].rules = {rule(1, 7, 70), rule(1, 7, 70)};
  dup_after.tables[0].rules = {rule(1, 7, 70)};
  const auto dup = diff_programs(dup_before, dup_after);
  ASSERT_EQ(dup.size(), 1u);
  EXPECT_EQ(dup[0].kind, dp::RuleUpdate::Kind::kRemove);

  // Pure growth: inserts only.
  dp::Program grown = before;
  grown.tables[0].rules.push_back(rule(0, 9, 90));
  const auto ins = diff_programs(before, grown);
  ASSERT_EQ(ins.size(), 1u);
  EXPECT_EQ(ins[0].kind, dp::RuleUpdate::Kind::kInsert);
  EXPECT_TRUE(ins[0].rule == grown.tables[0].rules.back());
}

}  // namespace
}  // namespace maton::cp

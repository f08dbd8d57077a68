// Differential harness gating the incremental intent compiler: over long
// randomized churn traces the delta-scoped path must be bit-identical to
// the full rebuild+diff reference — same update sequences, same patched
// program, same switch state — across all four representations. The
// proof reference a verifying binding maintains table by table is held
// to a full recompile the same way.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <optional>
#include <variant>
#include <vector>

#include "controlplane/churn.hpp"
#include "controlplane/compiler.hpp"
#include "util/contract.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace maton::cp {

/// Befriended by GwlbBinding: compares the indexes the delta path keeps
/// in place (provenance, slice index, row offsets), and reads the proof
/// reference VerifyMode::kSymbolic maintains.
struct GwlbBindingInternals {
  using LiveSliceIndex =
      std::vector<std::map<std::uint32_t, std::vector<std::size_t>>>;
  /// The slice index with every position read through its table's
  /// removal map: what the delta path sees.
  static LiveSliceIndex live_slice_index(const GwlbBinding& b) {
    LiveSliceIndex out(b.slice_index_.size());
    for (std::size_t t = 0; t < b.slice_index_.size(); ++t) {
      for (const auto& [service, builds] : b.slice_index_[t]) {
        std::vector<std::size_t>& live = out[t][service];
        for (const std::uint32_t build : builds) {
          live.push_back(b.slice_removals_[t].live(build));
        }
      }
    }
    return out;
  }
  static bool indexes_equal(const GwlbBinding& a, const GwlbBinding& b) {
    return a.provenance_ == b.provenance_ &&
           live_slice_index(a) == live_slice_index(b) &&
           a.row_offsets_ == b.row_offsets_;
  }
  /// Removals table `t`'s slice index has recorded since its last build.
  static std::size_t recorded_removals(const GwlbBinding& b, std::size_t t) {
    return b.slice_removals_[t].removed();
  }
  static const dp::Program& reference(const GwlbBinding& b) {
    return b.reference_;
  }
  static const dp::FieldMap& reference_fields(const GwlbBinding& b) {
    return b.reference_fields_;
  }
  static const std::vector<std::vector<std::uint32_t>>& provenance(
      const GwlbBinding& b) {
    return b.provenance_;
  }
  static dp::Program& program(GwlbBinding& b) { return b.program_; }
  /// Sets `service`'s model to `svc`, runs the delta path against its
  /// old state and restores it; true when the path declined for slice
  /// validation.
  static bool declines_for_slice_validation(GwlbBinding& b,
                                            std::size_t service,
                                            workloads::GwlbService svc) {
    workloads::GwlbService old = std::move(b.gwlb_.services[service]);
    b.gwlb_.services[service] = std::move(svc);
    const bool declined =
        !b.try_compile_incremental(service, old).has_value() &&
        b.last_fallback_cause_ == GwlbBinding::FallbackCause::kSliceValidation;
    b.gwlb_.services[service] = std::move(old);
    return declined;
  }
  static void rebuild_provenance(GwlbBinding& b) { b.rebuild_provenance(); }
  /// Provenance derived the way the binding once derived it: every
  /// service's lowered, sorted slice of every stage paired with the
  /// service, and each table's pairs stable-sorted by priority. nullopt
  /// when that re-emission does not reproduce the compiled program.
  static std::optional<std::vector<std::vector<std::uint32_t>>>
  reemitted_provenance(const GwlbBinding& b) {
    const RepresentationDescriptor& desc = descriptor(b.repr_);
    const std::size_t n = b.gwlb_.services.size();
    std::vector<std::vector<std::pair<dp::Rule, std::uint32_t>>> by_table(
        b.program_.tables.size());
    dp::FlatRules slice;
    for (std::size_t s = 0; s < n; ++s) {
      for (std::size_t k = 0; k < desc.stages.size(); ++k) {
        b.service_slice(k, b.gwlb_.services[s], s, slice);
        for (const dp::RuleView rule : slice) {
          by_table[desc.table_of(k, s, n)].emplace_back(
              rule, static_cast<std::uint32_t>(s));
        }
      }
    }
    std::vector<std::vector<std::uint32_t>> out(by_table.size());
    for (std::size_t t = 0; t < by_table.size(); ++t) {
      auto& emitted = by_table[t];
      std::stable_sort(emitted.begin(), emitted.end(),
                       [](const auto& a, const auto& b) {
                         return a.first.priority > b.first.priority;
                       });
      const dp::FlatRules& rules = b.program_.tables[t].rules;
      if (emitted.size() != rules.size()) return std::nullopt;
      for (std::size_t i = 0; i < emitted.size(); ++i) {
        if (!(rules[i] == emitted[i].first)) return std::nullopt;
        out[t].push_back(emitted[i].second);
      }
    }
    return out;
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

/// At most a quarter of the fleet, but at least one service, is removed.
std::size_t removal_cap(std::size_t services) {
  return std::max<std::size_t>(1, services / 4);
}

/// Draws a random intent against `fleet`. VIPs come from a private
/// counter in 198.19.0.0/16 (make_gwlb allocates from 198.18.0.0/15 and
/// the paper example from 192.0.2.0/24; this range is never reused), so
/// ChangeServiceIp never collides and the incremental path stays on its
/// fast path. Ports rotate through the ephemeral range; a backend is
/// drawn from the service's own. Removals are capped (removal_cap) —
/// services never come back, and intents drawn against an
/// already-removed service are kept in the trace on purpose (they
/// exercise the failed-intent no-op path on both compilers).
class IntentSource {
 public:
  explicit IntentSource(std::uint64_t seed, const Gwlb& fleet)
      : rng_(seed), removals_left_(removal_cap(fleet.services.size())) {
    for (const workloads::GwlbService& svc : fleet.services) {
      backends_.push_back(svc.backends.size());
    }
  }

  Intent next() {
    const std::size_t service = rng_.index(backends_.size());
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
            .backend = rng_.index(backends_[service]),
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
  /// Backends per service in the fleet the trace started from.
  std::vector<std::size_t> backends_;
  std::size_t removals_left_;
  std::uint64_t vip_counter_ = 0;
};

/// The binding's proof reference against a full recompile of its service
/// model: same program bit for bit, same field assignment.
::testing::AssertionResult reference_is_a_full_recompile(
    const GwlbBinding& binding) {
  dp::FieldMap fields;
  auto full = dp::compile(pipeline_for(binding.gwlb(), binding.representation()),
                          &fields);
  if (!full.is_ok()) {
    return ::testing::AssertionFailure() << full.status().message();
  }
  const dp::Program& reference = GwlbBindingInternals::reference(binding);
  if (reference.entry != full.value().entry ||
      reference.tables.size() != full.value().tables.size()) {
    return ::testing::AssertionFailure() << "reference shape differs";
  }
  for (std::size_t t = 0; t < reference.tables.size(); ++t) {
    if (!(reference.tables[t] == full.value().tables[t])) {
      return ::testing::AssertionFailure()
             << "reference table " << t << " ("
             << full.value().tables[t].name << ") is stale";
    }
  }
  if (GwlbBindingInternals::reference_fields(binding) != fields) {
    return ::testing::AssertionFailure() << "reference field map differs";
  }
  return ::testing::AssertionSuccess();
}

/// Services with 1, 2, 3 and 8 backends, twice over: make_gwlb's VIPs,
/// ports and backends, with the paper example's splits (a /0 prefix, two
/// /1s, 1:1:2 over three) or make_gwlb's eight /3s. The other fleets in
/// these traces give every service as many backends.
Gwlb mixed_fleet() {
  const Gwlb paper = workloads::make_paper_example();
  std::vector<workloads::GwlbService> services =
      make_gwlb({.num_services = 8, .num_backends = 8, .seed = 3}).services;
  for (std::size_t s = 0; s < services.size(); ++s) {
    if (s % 4 == 3) continue;  // keeps its eight backends
    // Paper tenants 3, 1 and 2 have 1, 2 and 3 backends.
    const auto& split = paper.services[(s % 4 + 2) % 3].src_prefixes;
    services[s].src_prefixes = split;
    services[s].backends.resize(split.size());
  }
  return workloads::assemble(std::move(services));
}

/// Replays `num_intents` random intents against `gwlb` through an
/// incremental binding and a full-rebuild reference binding in lockstep,
/// checking after every step that the update sequence, the patched
/// program, and the state of a switch driven by the updates are
/// identical, and that the proof reference each binding maintains equals
/// a full recompile.
void run_churn_differential(Representation repr, const Gwlb& gwlb,
                            std::size_t num_intents, std::uint64_t seed) {
  SCOPED_TRACE(std::to_string(gwlb.services.size()) + " services, " +
               std::to_string(gwlb.universal.num_rows()) + " rows");
  GwlbBinding inc(gwlb, repr, CompileMode::kIncremental, AnalyzeMode::kOff,
                  VerifyMode::kSymbolic);
  GwlbBinding ref(gwlb, repr, CompileMode::kFullRebuild, AnalyzeMode::kOff,
                  VerifyMode::kSymbolic);
  ASSERT_TRUE(inc.program() == ref.program()) << to_string(repr);

  dp::HwTcamModel sw_inc;
  dp::HwTcamModel sw_ref;
  ASSERT_TRUE(sw_inc.load(inc.program()).is_ok());
  ASSERT_TRUE(sw_ref.load(ref.program()).is_ok());

  IntentSource source(seed * 7919 + 1, gwlb);
  std::size_t applied = 0;
  std::size_t removals = 0;
  for (std::size_t step = 0; step < num_intents; ++step) {
    const Intent intent = source.next();
    const auto got = inc.compile_intent(intent);
    const auto want = ref.compile_intent(intent);
    ASSERT_EQ(got.is_ok(), want.is_ok())
        << to_string(repr) << " step " << step << ": " << to_string(intent);
    ASSERT_TRUE(reference_is_a_full_recompile(inc))
        << to_string(repr) << " step " << step << ": " << to_string(intent);
    ASSERT_TRUE(reference_is_a_full_recompile(ref))
        << to_string(repr) << " step " << step << ": " << to_string(intent);
    if (!got.is_ok()) {
      // Failed intents must be no-ops on both sides.
      EXPECT_EQ(got.status().code(), want.status().code());
      ASSERT_TRUE(inc.program() == ref.program());
      continue;
    }
    ++applied;
    if (std::holds_alternative<RemoveService>(intent)) ++removals;
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
  // A removal shifts every later service's universal rows.
  EXPECT_GT(removals, 0u);
  for (const GwlbBinding* binding : {&inc, &ref}) {
    EXPECT_EQ(binding->verify_stats().verified, applied + 1)
        << binding->last_verify_note();
    EXPECT_EQ(binding->verify_stats().failed, 0u);
    EXPECT_EQ(binding->verify_stats().unknown, 0u);
  }
}

class IncrementalChurn
    : public ::testing::TestWithParam<Representation> {};

TEST_P(IncrementalChurn, FiveHundredIntentTraceMatchesReference) {
  for (const Gwlb& fleet :
       {make_gwlb({.num_services = 10, .num_backends = 4, .seed = 11}),
        mixed_fleet()}) {
    run_churn_differential(GetParam(), fleet, /*num_intents=*/500,
                           /*seed=*/11);
  }
}

TEST_P(IncrementalChurn, SmallInstanceDeepTrace) {
  for (const Gwlb& fleet :
       {make_gwlb({.num_services = 3, .num_backends = 2, .seed = 23}),
        workloads::make_paper_example()}) {
    run_churn_differential(GetParam(), fleet, /*num_intents=*/200,
                           /*seed=*/23);
  }
}

/// Draws a random intent against the live model that drives every
/// compile path: removals (capped at a quarter of the fleet), deliberate
/// VIP collisions (re-addressing a service onto another service's VIP)
/// and, once two services share a VIP, a port move of one onto the
/// other's port — a duplicate (ip_dst, tcp_dst) key that falls back to
/// the full rebuild and is refused there. The rest is the soak's mix.
class CollidingIntentSource {
 public:
  CollidingIntentSource(std::uint64_t seed, std::size_t services)
      : rng_(seed), removals_left_(services / 4) {}

  Intent next(const Gwlb& live) {
    const std::size_t n = live.services.size();
    const std::size_t service = rng_.index(n);
    const double draw = rng_.real();
    if (draw < 0.05 && removals_left_ > 0) {
      --removals_left_;
      return RemoveService{.service = service};
    }
    if (draw < 0.25) {
      std::size_t other = rng_.index(n - 1);
      if (other >= service) ++other;
      const workloads::GwlbService& partner = live.services[other];
      if (partner.vip == live.services[service].vip) {
        return MoveServicePort{.service = service, .new_port = partner.port};
      }
      return ChangeServiceIp{.service = service, .new_vip = partner.vip};
    }
    return draw_mixed_intent(rng_, live, {.vip_collision_probability = 0.0});
  }

 private:
  Rng rng_;
  std::size_t removals_left_;
};

TEST_P(IncrementalChurn, MaintainedProofReferenceMatchesAFullRecompile) {
  // The verifying binding re-lowers only the tables an intent's service
  // maps to. After every intent — delta path, VIP-collision fallback,
  // full rebuild, refused — that reference must equal a full recompile.
  const Representation repr = GetParam();
  const Gwlb gwlb = make_gwlb({.num_services = 10, .num_backends = 4,
                               .seed = 5});
  for (const CompileMode mode :
       {CompileMode::kIncremental, CompileMode::kFullRebuild}) {
    GwlbBinding binding(gwlb, repr, mode, AnalyzeMode::kOff,
                        VerifyMode::kSymbolic);
    ASSERT_TRUE(reference_is_a_full_recompile(binding));
    CollidingIntentSource source(97, gwlb.services.size());
    std::size_t applied = 0;
    std::size_t removals = 0;
    std::size_t refused = 0;
    std::size_t refused_collisions = 0;
    for (std::size_t step = 0; step < 300; ++step) {
      const Intent intent = source.next(binding.gwlb());
      const auto compiled = binding.compile_intent(intent);
      if (compiled.is_ok()) {
        ++applied;
        if (std::holds_alternative<RemoveService>(intent)) ++removals;
      } else {
        ++refused;
        if (std::holds_alternative<ChangeServiceIp>(intent)) {
          ++refused_collisions;
        }
      }
      ASSERT_TRUE(reference_is_a_full_recompile(binding))
          << to_string(repr) << " step " << step << ": " << to_string(intent);
    }
    const VerifyStats verify = binding.verify_stats();
    EXPECT_EQ(verify.verified, applied + 1) << binding.last_verify_note();
    EXPECT_EQ(verify.failed, 0u);
    EXPECT_EQ(verify.unknown, 0u);
    EXPECT_GT(removals, 0u) << to_string(repr);
    // Refused intents include the duplicate-key port moves in every
    // representation and the VIP collisions rematch cannot express.
    EXPECT_GT(refused, 0u) << to_string(repr);
    if (repr == Representation::kRematch) {
      EXPECT_GT(refused_collisions, 0u);
    }
    if (mode == CompileMode::kIncremental) {
      EXPECT_GT(binding.incremental_stats().hits, 0u);
      EXPECT_GT(binding.incremental_stats().vip_collision_fallbacks, 0u)
          << to_string(repr);
    }
  }
}

TEST_P(IncrementalChurn, ReturnedUpdatesOwnTheirRules) {
  // The delta path compiles into scratch the binding reuses on the next
  // intent, so the updates it returns must not point into it: the three
  // update vectors of intents k, k + 1 and k + 2, applied in order only
  // after all three were compiled, must still rebuild the program. The
  // intents touch different services, so an update that aliased the
  // scratch would apply a later intent's rows.
  GwlbBinding binding(make_gwlb({.num_services = 12, .num_backends = 4,
                                 .seed = 5}),
                      GetParam());
  Rng rng(5);
  for (int i = 0; i < 40; ++i) {
    ASSERT_TRUE(
        binding.compile_intent(draw_mixed_intent(rng, binding.gwlb(), {}))
            .is_ok());
  }
  dp::Program copy = binding.program();
  const std::size_t fallbacks = binding.incremental_stats().fallbacks;
  // 198.19.10.11 lies outside make_gwlb's VIPs: no collision fallback.
  const std::array<Intent, 3> intents = {
      ChangeBackend{.service = 1, .backend = 2, .new_out = 4242},
      MoveServicePort{.service = 6, .new_port = 31337},
      ChangeServiceIp{.service = 9, .new_vip = 0xc6130a0bu}};
  std::vector<std::vector<dp::RuleUpdate>> updates;
  for (const Intent& intent : intents) {
    auto compiled = binding.compile_intent(intent);
    ASSERT_TRUE(compiled.is_ok()) << to_string(intent);
    ASSERT_FALSE(compiled.value().empty()) << to_string(intent);
    updates.push_back(std::move(compiled).value());
  }
  EXPECT_EQ(binding.incremental_stats().fallbacks, fallbacks);
  for (const std::vector<dp::RuleUpdate>& batch : updates) {
    for (const dp::RuleUpdate& update : batch) {
      ASSERT_TRUE(dp::apply_update_to_program(copy, update).is_ok());
    }
  }
  EXPECT_TRUE(copy == binding.program());
}

INSTANTIATE_TEST_SUITE_P(AllRepresentations, IncrementalChurn,
                         ::testing::ValuesIn(kAllReprs),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(IncrementalCompile, ProvenanceMatchesThePairSortReEmission) {
  // A 200-service fleet in which service 1 splits its load over four /2
  // source prefixes instead of eight /3 ones: once it takes service 0's
  // VIP, its rules overlap service 0's without repeating a match key
  // wherever a shared table is keyed on ip_src and ip_dst. Universal keys
  // (ip_src, ip_dst, tcp_dst), so the two must share a port there;
  // rematch's entry is keyed on (ip_dst, tcp_dst), so they must not. Both
  // then fall back to a full rebuild. Goto and metadata key their shared
  // tables exactly: the collision is proven disjoint and patched in place.
  for (const Representation repr : kAllReprs) {
    Gwlb gwlb = make_gwlb({.num_services = 200, .num_backends = 8,
                           .seed = 3});
    workloads::GwlbService& narrow = gwlb.services[1];
    narrow.src_prefixes.clear();
    narrow.backends.clear();
    for (std::uint64_t b = 0; b < 4; ++b) {
      narrow.src_prefixes.push_back(((b << 30) << 8) | 2);  // addr << 8 | len
      narrow.backends.push_back(90000 + b);
    }
    narrow.port = repr == Representation::kUniversal
                      ? gwlb.services[0].port
                      : static_cast<std::uint16_t>(gwlb.services[0].port ^ 1);
    const ChangeServiceIp collide{.service = 1,
                                  .new_vip = gwlb.services[0].vip};
    const bool overlaps = repr == Representation::kUniversal ||
                          repr == Representation::kRematch;
    for (const CompileMode mode :
         {CompileMode::kIncremental, CompileMode::kFullRebuild}) {
      GwlbBinding binding(gwlb, repr, mode);
      const auto built = GwlbBindingInternals::reemitted_provenance(binding);
      ASSERT_TRUE(built.has_value()) << to_string(repr);
      EXPECT_EQ(GwlbBindingInternals::provenance(binding), *built)
          << to_string(repr);

      ASSERT_TRUE(binding.compile_intent(collide).is_ok()) << to_string(repr);
      if (mode == CompileMode::kIncremental) {
        EXPECT_EQ(binding.incremental_stats().vip_collision_fallbacks,
                  overlaps ? 1u : 0u)
            << to_string(repr);
      }
      const auto after = GwlbBindingInternals::reemitted_provenance(binding);
      ASSERT_TRUE(after.has_value()) << to_string(repr);
      EXPECT_EQ(GwlbBindingInternals::provenance(binding), *after)
          << to_string(repr);
    }
  }
}

TEST(IncrementalCompile, ProvenanceRejectsEmitterDrift) {
  // The cross-check refuses a compiled table that the emitters do not
  // reproduce: one rule changed, or one rule too many.
  const Gwlb gwlb = make_gwlb({.num_services = 8, .num_backends = 4});
  for (const Representation repr : kAllReprs) {
    GwlbBinding changed(gwlb, repr, CompileMode::kIncremental);
    dp::Program& program = GwlbBindingInternals::program(changed);
    dp::FlatRules& entry = program.tables[program.entry].rules;
    dp::Rule rule = entry[entry.size() - 1];
    rule.actions.push_back({dp::Action::Kind::kOutput, dp::FieldId::kMeta0,
                            77});
    entry.replace(entry.size() - 1, rule);
    EXPECT_THROW(GwlbBindingInternals::rebuild_provenance(changed),
                 ContractViolation)
        << to_string(repr);

    GwlbBinding grown(gwlb, repr, CompileMode::kIncremental);
    dp::Program& grown_program = GwlbBindingInternals::program(grown);
    grown_program.tables[grown_program.entry].rules.push_back(rule);
    EXPECT_THROW(GwlbBindingInternals::rebuild_provenance(grown),
                 ContractViolation)
        << to_string(repr);
  }
}

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
  // Service removal is the maximal shrinking slice (|after| = 0). It must
  // stay on the delta path and erase exactly the service's slice in
  // every table, with the slice index sound for the survivors.
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

TEST(IncrementalCompile, ReshapedSliceDeclinesBeforeMutating) {
  // No intent changes a live service's prefixes, so every delta patch is
  // same-shape or empty. A slice whose priorities move (one backend's
  // prefix widened from /3 to /2) would have to move rules across its
  // table: the delta path declines it in validation, nothing mutated.
  const Gwlb gwlb = make_gwlb({.num_services = 4, .num_backends = 8});
  for (const Representation repr : kAllReprs) {
    GwlbBinding binding(gwlb, repr, CompileMode::kIncremental);
    const dp::Program program = binding.program();
    const core::Table universal = binding.gwlb().universal;
    workloads::GwlbService reshaped = gwlb.services[1];
    reshaped.src_prefixes[0] = (reshaped.src_prefixes[0] & ~0xffULL) | 2;
    EXPECT_TRUE(GwlbBindingInternals::declines_for_slice_validation(
        binding, 1, reshaped))
        << to_string(repr);
    EXPECT_TRUE(binding.program() == program) << to_string(repr);
    EXPECT_TRUE(binding.gwlb().universal == universal) << to_string(repr);
  }
}

TEST(IncrementalCompile, RemoveServiceKeepsIndexesEqualToARebuild) {
  // The removal splice erases the service's positions from the program
  // and provenance in place and records them in the slice index's
  // removal map; read through that map, what it leaves must be exactly
  // what a full compile of the service model derives. Six of sixteen
  // services go, so every shared table passes the map's quarter share
  // and rebuilds its slice index on the way.
  const auto rebuilt = [](const GwlbBinding& binding) {
    return GwlbBinding(binding.gwlb(), binding.representation(),
                       CompileMode::kFullRebuild);
  };
  for (const Representation repr : kAllReprs) {
    const Gwlb gwlb = make_gwlb({.num_services = 16, .num_backends = 4});
    GwlbBinding inc(gwlb, repr, CompileMode::kIncremental);
    const std::size_t entry = inc.program().entry;
    bool recorded = false;
    bool rebuilt_index = false;
    for (const std::size_t victim : {4, 0, 15, 5, 9, 1}) {
      const std::size_t before = GwlbBindingInternals::recorded_removals(
          inc, entry);
      ASSERT_TRUE(inc.compile_intent(RemoveService{.service = victim}).is_ok())
          << to_string(repr) << " removing " << victim;
      const std::size_t after =
          GwlbBindingInternals::recorded_removals(inc, entry);
      recorded = recorded || after > before;
      rebuilt_index = rebuilt_index || after < before;
      const GwlbBinding reference = rebuilt(inc);
      ASSERT_TRUE(GwlbBindingInternals::indexes_equal(inc, reference))
          << to_string(repr) << " removing " << victim;
      ASSERT_TRUE(inc.program() == reference.program())
          << to_string(repr) << " removing " << victim;
      for (std::size_t s = 0; s < gwlb.services.size(); ++s) {
        ASSERT_EQ(inc.entry_rules(s), reference.entry_rules(s))
            << to_string(repr) << " removing " << victim << " service " << s;
      }
    }
    EXPECT_TRUE(recorded) << to_string(repr);
    EXPECT_TRUE(rebuilt_index) << to_string(repr);
    ASSERT_TRUE(
        inc.compile_intent(MoveServicePort{.service = 6, .new_port = 50123})
            .is_ok());
    ASSERT_TRUE(
        inc.compile_intent(ChangeBackend{.service = 14, .backend = 2,
                                         .new_out = 777})
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

// Differential suite: on randomized program pairs — equivalent,
// one-rule-mutated, priority-swapped and mask-widened — across all four
// representations, the symbolic verdict must agree with the independent
// probe oracle, and every refutation must carry a scalar-confirmed
// counterexample. Adversarial node-explosion cases must bail to
// kUnknown, never to a wrong verdict.
#include <gtest/gtest.h>

#include <optional>
#include <set>
#include <vector>

#include "analysis/symbolic/engine.hpp"
#include "controlplane/representation.hpp"
#include "core/equivalence.hpp"
#include "core/probe_oracle.hpp"
#include "dataplane/program.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"

namespace maton::analysis::symbolic {
namespace {

using workloads::Gwlb;

constexpr std::uint64_t kSeeds[] = {11, 12, 13, 14, 15};

dp::Program compiled(const core::Pipeline& pipeline) {
  auto result = dp::compile(pipeline);
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

/// Probe oracle over lowered programs: random flow keys drawn from the
/// field values both programs match on, plus flipped low bits for
/// near-miss coverage. Returns a diverging key if one is found.
std::optional<dp::FlowKey> probe_programs(const dp::Program& a,
                                          const dp::Program& b,
                                          std::uint64_t seed,
                                          std::size_t probes = 256) {
  std::array<std::vector<std::uint64_t>, dp::kNumFields> domain;
  for (const dp::Program* p : {&a, &b}) {
    for (const dp::TableSpec& spec : p->tables) {
      for (const dp::RuleView rule : spec.rules) {
        for (const dp::FieldMatch m : rule.matches) {
          domain[dp::field_index(m.field)].push_back(m.value);
        }
      }
    }
  }
  Rng rng(seed);
  for (std::size_t i = 0; i < probes; ++i) {
    dp::FlowKey key;
    for (std::size_t f = 0; f < dp::kNumFields; ++f) {
      const auto field = static_cast<dp::FieldId>(f);
      std::uint64_t v = 0;
      if (!domain[f].empty()) v = domain[f][rng.index(domain[f].size())];
      if (rng.chance(0.2)) v ^= 1;  // near-miss
      key.set(field, v & dp::field_full_mask(field));
    }
    const dp::ExecResult ea = dp::execute_reference(a, key);
    const dp::ExecResult eb = dp::execute_reference(b, key);
    if (ea.hit != eb.hit || (ea.hit && ea.out_port != eb.out_port)) {
      return key;
    }
  }
  return std::nullopt;
}

/// The differential contract: a definite symbolic verdict must be
/// consistent with the probe oracle — proofs mean no probe can diverge,
/// refutations carry their own confirmed witness (checked here again).
void expect_agreement(const Result& result, const dp::Program& a,
                      const dp::Program& b, std::uint64_t seed) {
  const std::optional<dp::FlowKey> diverging = probe_programs(a, b, seed);
  switch (result.outcome) {
    case Outcome::kEquivalent:
      EXPECT_FALSE(diverging.has_value())
          << "symbolic proof contradicted by probe oracle";
      break;
    case Outcome::kInequivalent: {
      ASSERT_TRUE(result.counterexample.has_value());
      ASSERT_TRUE(result.counterexample->key.has_value());
      const dp::FlowKey key = *result.counterexample->key;
      const dp::ExecResult ea = dp::execute_reference(a, key);
      const dp::ExecResult eb = dp::execute_reference(b, key);
      EXPECT_TRUE(ea.hit != eb.hit || ea.out_port != eb.out_port);
      break;
    }
    case Outcome::kUnknown:
      break;  // no verdict, nothing to contradict
  }
  if (diverging.has_value()) {
    // The oracle found a divergence: the solver must not claim a proof.
    EXPECT_NE(result.outcome, Outcome::kEquivalent);
  }
}

TEST(Differential, EquivalentRepresentationPairs) {
  for (const std::uint64_t seed : kSeeds) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 10, .num_backends = 4, .seed = seed});
    const dp::Program universal =
        compiled(core::Pipeline::single(gwlb.universal));
    const dp::Program progs[] = {
        compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto)),
        compiled(cp::pipeline_for(gwlb, cp::Representation::kMetadata)),
        compiled(cp::pipeline_for(gwlb, cp::Representation::kRematch)),
    };
    for (const dp::Program& p : progs) {
      const Result result = check_programs(universal, p);
      EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
      expect_agreement(result, universal, p, seed);
    }
  }
}

TEST(Differential, OneRuleMutated) {
  for (const std::uint64_t seed : kSeeds) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = seed});
    const dp::Program left =
        compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
    dp::Program right = left;
    // Flip the output of one load-balancer rule.
    Rng rng(seed);
    dp::TableSpec& spec = right.tables[1 + rng.index(gwlb.services.size())];
    const std::size_t pos = rng.index(spec.rules.size());
    dp::Rule mutated = spec.rules.to_rules()[pos];
    for (dp::Action& action : mutated.actions) action.value ^= 1;
    spec.rules.replace(pos, mutated);

    const Result result = check_programs(left, right);
    EXPECT_EQ(result.outcome, Outcome::kInequivalent);
    expect_agreement(result, left, right, seed);
  }
}

TEST(Differential, PrioritySwapped) {
  for (const std::uint64_t seed : kSeeds) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = seed});
    const dp::Program left =
        compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
    dp::Program right = left;
    // Swap the scan order of two disjoint first-stage rules: the packet
    // function is unchanged, and canonicity must prove it.
    dp::TableSpec& spec = right.tables[0];
    ASSERT_GE(spec.rules.size(), 2u);
    const std::vector<dp::Rule> rules = spec.rules.to_rules();
    dp::Rule first = rules[0];
    dp::Rule second = rules[1];
    std::swap(first.priority, second.priority);
    spec.rules.replace(0, second);
    spec.rules.replace(1, first);

    const Result result = check_programs(left, right);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
    expect_agreement(result, left, right, seed);
  }
}

TEST(Differential, MaskWidened) {
  for (const std::uint64_t seed : kSeeds) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = seed});
    const dp::Program left =
        compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
    dp::Program right = left;
    // Widen one service-stage match: the rule now also claims keys it
    // previously missed or that belonged to lower-priority rules.
    dp::TableSpec& spec = right.tables[0];
    Rng rng(seed);
    dp::Rule widened = spec.rules.to_rules()[rng.index(spec.rules.size())];
    ASSERT_FALSE(widened.matches.empty());
    widened.matches[0].mask &= ~std::uint64_t{0xff};
    widened.matches[0].value &= widened.matches[0].mask;
    spec.rules.replace(rng.index(spec.rules.size()), widened);

    const Result result = check_programs(left, right);
    expect_agreement(result, left, right, seed);
  }
}

TEST(Differential, CorePipelinesAgainstProbeOracle) {
  for (const std::uint64_t seed : kSeeds) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = seed});
    for (const core::Pipeline& pipeline :
         {cp::pipeline_for(gwlb, cp::Representation::kGoto),
          cp::pipeline_for(gwlb, cp::Representation::kMetadata),
          cp::pipeline_for(gwlb, cp::Representation::kRematch)}) {
      const Result symbolic =
          check_table_vs_pipeline(gwlb.universal, pipeline);
      const core::EquivalenceReport probed =
          core::check_equivalence(gwlb.universal, pipeline);
      EXPECT_EQ(symbolic.outcome, Outcome::kEquivalent) << symbolic.note;
      EXPECT_TRUE(probed.equivalent) << probed.counterexample;
    }

    // Mutated pipeline: both oracles must refute (the mutation touches a
    // hit path, which phase 1 of the probe oracle enumerates).
    Gwlb mutated = gwlb;
    Rng rng(seed);
    auto& svc = mutated.services[rng.index(mutated.services.size())];
    svc.backends[rng.index(svc.backends.size())] ^= 1;
    const core::Pipeline pipeline =
        cp::pipeline_for(mutated, cp::Representation::kGoto);
    const Result symbolic =
        check_table_vs_pipeline(gwlb.universal, pipeline);
    const core::EquivalenceReport probed =
        core::check_equivalence(gwlb.universal, pipeline);
    EXPECT_EQ(symbolic.outcome, Outcome::kInequivalent);
    EXPECT_FALSE(probed.equivalent);
    ASSERT_TRUE(symbolic.counterexample.has_value());
    ASSERT_TRUE(symbolic.counterexample->packet.has_value());
    const core::PacketState& packet = *symbolic.counterexample->packet;
    const core::EvalResult ea =
        core::Pipeline::single(gwlb.universal).evaluate(packet);
    const core::EvalResult eb = pipeline.evaluate(packet);
    EXPECT_TRUE(ea.hit != eb.hit || ea.actions != eb.actions);
  }
}

/// Adversarial case: dozens of wide random ternary cubes over two
/// 48/32-bit fields produce an exponential first-match diagram. Under a
/// tiny node budget the solver must answer kUnknown — and if it ever
/// does produce a verdict, that verdict must still agree with the
/// probe oracle.
TEST(Differential, NodeExplosionBailsToUnknownNeverWrong) {
  std::size_t bailed = 0;
  for (const std::uint64_t seed : kSeeds) {
    Rng rng(seed);
    const auto random_program = [&rng] {
      dp::Program program;
      program.tables.push_back(
          {"adversarial", {dp::FieldId::kEthSrc, dp::FieldId::kIpSrc},
           {}, std::nullopt});
      for (std::uint32_t i = 0; i < 48; ++i) {
        dp::Rule rule;
        rule.priority = 100 - i;
        rule.matches = {
            {dp::FieldId::kEthSrc,
             rng.uniform(0, dp::field_full_mask(dp::FieldId::kEthSrc)),
             rng.uniform(0, dp::field_full_mask(dp::FieldId::kEthSrc))},
            {dp::FieldId::kIpSrc,
             rng.uniform(0, dp::field_full_mask(dp::FieldId::kIpSrc)),
             rng.uniform(0, dp::field_full_mask(dp::FieldId::kIpSrc))}};
        for (dp::FieldMatch& m : rule.matches) m.value &= m.mask;
        rule.actions = {
            {dp::Action::Kind::kOutput, dp::FieldId::kInPort, i, 16}};
        program.tables[0].rules.push_back(rule);
      }
      return program;
    };
    const dp::Program a = random_program();
    const dp::Program b = random_program();
    Options options;
    options.max_nodes = 2000;
    const Result result = check_programs(a, b, options);
    if (result.outcome == Outcome::kUnknown) {
      EXPECT_FALSE(result.note.empty());
      ++bailed;
    } else {
      expect_agreement(result, a, b, seed);
    }
  }
  // The whole point of the budget: these cases must actually trip it.
  EXPECT_GT(bailed, 0u);
}

}  // namespace
}  // namespace maton::analysis::symbolic

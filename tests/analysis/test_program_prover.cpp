// ProgramProver: a prover whose store and table cache persist across
// checks must give, at every step of a random mutation walk, the outcome
// of a fresh check_programs, with every refutation confirmed by the
// scalar interpreter. Budget overflows of a warm store are retried cold,
// the store stays bounded under churn, a binding's per-intent proofs
// re-fold (and key) only the tables the intent changed, and drift planted
// in a table no intent touches, by assignment or by any in-place edit, is
// still refuted, also when only a successor patch of the entry table
// can see it.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <optional>
#include <string_view>
#include <vector>

#include "analysis/symbolic/engine.hpp"
#include "controlplane/compiler.hpp"
#include "controlplane/representation.hpp"
#include "dataplane/program.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"

namespace maton::cp {

/// Befriended by GwlbBinding: plants drift in the live program behind
/// the compiler's back, and marks the proof reference's tables.
struct GwlbBindingInternals {
  static dp::Program& program(GwlbBinding& binding) {
    return binding.program_;
  }
  static dp::Program& reference(GwlbBinding& binding) {
    return binding.reference_;
  }
};

}  // namespace maton::cp

namespace maton::analysis::symbolic {
namespace {

using workloads::Gwlb;

dp::Program compiled(const core::Pipeline& pipeline) {
  auto result = dp::compile(pipeline);
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

dp::Program program_for(const Gwlb& gwlb, cp::Representation repr) {
  if (repr == cp::Representation::kUniversal) {
    return compiled(core::Pipeline::single(gwlb.universal));
  }
  return compiled(cp::pipeline_for(gwlb, repr));
}

std::vector<dp::Rule> rules_of(const dp::TableSpec& table) {
  return {table.rules.begin(), table.rules.end()};
}

/// Rewrites table `t` of `program` through `edit(std::vector<dp::Rule>&)`.
template <typename Edit>
void edit_table(dp::Program& program, std::size_t t, Edit&& edit) {
  std::vector<dp::Rule> rules = rules_of(program.tables[t]);
  edit(rules);
  program.tables[t].rules = dp::FlatRules(rules);
}

/// One random edit of `program`: rewrite a rule, reorder two rules,
/// retarget a goto or default successor, insert a rule that can never
/// match, widen a rule until it overlaps its neighbours, or close a
/// cycle back to the entry table.
void mutate(dp::Program& program, Rng& rng) {
  const std::size_t t = rng.index(program.tables.size());
  const std::size_t n = program.tables[t].rules.size();
  switch (rng.index(6)) {
    case 0:  // rewrite: an output port or a matched value bit
      if (n == 0) return;
      edit_table(program, t, [&rng](std::vector<dp::Rule>& rules) {
        dp::Rule& rule = rules[rng.index(rules.size())];
        if (!rule.actions.empty() && rng.chance(0.5)) {
          rule.actions[rng.index(rule.actions.size())].value ^= 1;
        } else if (!rule.matches.empty()) {
          dp::FieldMatch& m = rule.matches[rng.index(rule.matches.size())];
          m.value ^= m.mask & (~m.mask + 1);  // lowest matched bit
        }
      });
      return;
    case 1:  // reorder
      if (n < 2) return;
      edit_table(program, t, [&rng](std::vector<dp::Rule>& rules) {
        std::swap(rules[rng.index(rules.size())],
                  rules[rng.index(rules.size())]);
      });
      return;
    case 2: {  // retarget
      const std::size_t to = rng.index(program.tables.size());
      if (n > 0 && rng.chance(0.5)) {
        edit_table(program, t, [&](std::vector<dp::Rule>& rules) {
          rules[rng.index(rules.size())].goto_table = to;
        });
      } else {
        program.tables[t].next = to;
      }
      return;
    }
    case 3:  // a rule no key can match: a value bit outside its mask
      edit_table(program, t, [&rng](std::vector<dp::Rule>& rules) {
        dp::Rule never;
        never.matches.push_back({dp::FieldId::kTcpDst, 0x3, 0x1});
        never.actions.push_back(
            {dp::Action::Kind::kOutput, dp::FieldId::kMeta0, 4242});
        never.goto_table = 0;
        rules.insert(rules.begin() + static_cast<std::ptrdiff_t>(
                                         rng.index(rules.size() + 1)),
                     never);
      });
      return;
    case 4:  // widen: keep a prefix of the matches, maybe none
      if (n == 0) return;
      edit_table(program, t, [&rng](std::vector<dp::Rule>& rules) {
        dp::Rule& rule = rules[rng.index(rules.size())];
        rule.matches.resize(rng.index(rule.matches.size() + 1));
      });
      return;
    default:  // cycle back to the entry table
      program.tables[t].next = program.entry;
      return;
  }
}

/// Both verdicts agree, and a refutation's counterexample makes the
/// scalar interpreter disagree.
void expect_same(const Result& warm, const Result& cold,
                 const dp::Program& a, const dp::Program& b) {
  ASSERT_EQ(warm.outcome, cold.outcome) << warm.note << " / " << cold.note;
  for (const Result* r : {&warm, &cold}) {
    if (r->outcome != Outcome::kInequivalent) continue;
    ASSERT_TRUE(r->counterexample.has_value());
    ASSERT_TRUE(r->counterexample->key.has_value());
    const dp::ExecResult ea = dp::execute_reference(a, *r->counterexample->key);
    const dp::ExecResult eb = dp::execute_reference(b, *r->counterexample->key);
    EXPECT_FALSE(ea.hit == eb.hit && (!ea.hit || ea.out_port == eb.out_port))
        << r->counterexample->description;
  }
}

class MutationWalk : public ::testing::TestWithParam<cp::Representation> {};

TEST_P(MutationWalk, WarmProverMatchesFreshCheck) {
  for (const std::uint64_t seed : {3u, 4u}) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 10, .num_backends = 4, .seed = seed});
    const dp::Program reference = program_for(gwlb, GetParam());
    dp::Program live = reference;
    ProgramProver prover;
    Rng rng(seed * 7919);
    std::size_t refuted = 0;
    std::size_t proven = 0;
    std::size_t unknown = 0;
    for (std::size_t step = 0; step < 80; ++step) {
      if (rng.chance(0.2)) live = reference;
      mutate(live, rng);
      const Result warm = prover.check(live, reference);
      const Result cold = check_programs(live, reference);
      expect_same(warm, cold, live, reference);
      if (HasFatalFailure()) return;
      refuted += warm.outcome == Outcome::kInequivalent ? 1 : 0;
      proven += warm.outcome == Outcome::kEquivalent ? 1 : 0;
      unknown += warm.outcome == Outcome::kUnknown ? 1 : 0;
    }
    EXPECT_GT(refuted, 0u);
    EXPECT_GT(proven, 0u);
    EXPECT_GT(unknown, 0u);  // the cycles
  }
}

INSTANTIATE_TEST_SUITE_P(
    Representations, MutationWalk,
    ::testing::Values(cp::Representation::kGoto, cp::Representation::kMetadata,
                      cp::Representation::kUniversal),
    [](const auto& info) { return std::string(cp::to_string(info.param)); });

dp::Rule route(std::optional<std::uint64_t> vip, std::uint64_t out) {
  dp::Rule rule;
  if (vip.has_value()) {
    rule.matches.push_back({dp::FieldId::kIpDst, *vip, 0xffffffffu});
  }
  rule.actions.push_back({dp::Action::Kind::kOutput, dp::FieldId::kMeta0, out});
  return rule;
}

/// Routes to VIPs first, ..., first + 7, then `tail`, then a default
/// route.
dp::Program routes(std::uint64_t first, const std::vector<dp::Rule>& tail) {
  std::vector<dp::Rule> rules;
  for (std::uint64_t vip = 1; vip <= 8; ++vip) {
    rules.push_back(route(vip == 1 ? first : 100 + vip, vip));
  }
  rules.insert(rules.end(), tail.begin(), tail.end());
  rules.push_back(route(std::nullopt, 9));
  dp::Program program;
  program.tables.push_back({.name = "t", .rules = dp::FlatRules(rules)});
  return program;
}

TEST(ProgramProver, PatchKeepsRulesOverlappingTheChange) {
  // The default route overlaps every rule. Moving rule 0 from VIP 10 to
  // VIP 30 patches the table inside {10, 30}, where the default route
  // must still catch VIP 10.
  const dp::Program before = routes(10, {});
  const dp::Program after = routes(30, {});
  // `after` spelled differently, so it is folded on its own.
  const dp::Program twin = routes(30, {route(40, 9)});
  ProgramProver prover;
  ASSERT_EQ(prover.check(before, before).outcome, Outcome::kEquivalent);
  const Result warm = prover.check(after, twin);
  EXPECT_EQ(warm.outcome, Outcome::kEquivalent) << warm.note;
  expect_same(warm, check_programs(after, twin), after, twin);
  EXPECT_EQ(prover.check(after, before).outcome, Outcome::kInequivalent);
}

/// `program` with every output port shifted by `delta`: every table with
/// an output changes.
dp::Program shifted_ports(dp::Program program, std::uint64_t delta) {
  for (std::size_t t = 0; t < program.tables.size(); ++t) {
    edit_table(program, t, [delta](std::vector<dp::Rule>& rules) {
      for (dp::Rule& rule : rules) {
        for (dp::Action& action : rule.actions) {
          if (action.kind == dp::Action::Kind::kOutput) action.value += delta;
        }
      }
    });
  }
  return program;
}

TEST(ProgramProver, WarmOverflowIsRetriedCold) {
  const Gwlb gwlb = workloads::make_gwlb(
      {.num_services = 12, .num_backends = 4, .seed = 9});
  const dp::Program reference = program_for(gwlb, cp::Representation::kGoto);
  std::vector<dp::Program> variants{reference};
  for (std::uint64_t delta = 1; delta <= 6; ++delta) {
    variants.push_back(shifted_ports(reference, delta));
  }
  // A budget just above the largest cold proof of any pair checked.
  std::size_t cold = 0;
  for (const dp::Program& v : variants) {
    cold = std::max({cold, check_programs(v, reference).stats.nodes,
                     check_programs(v, v).stats.nodes});
  }
  ProgramProver prover({.max_nodes = cold + cold / 16});
  for (std::size_t round = 0; round < 3; ++round) {
    for (const dp::Program& v : variants) {
      for (const dp::Program* right : {&reference, &v}) {
        const Result warm = prover.check(v, *right);
        ASSERT_NE(warm.outcome, Outcome::kUnknown) << warm.note;
        expect_same(warm, check_programs(v, *right), v, *right);
      }
    }
  }
  EXPECT_GT(prover.resets(), 0u);
}

TEST(ProgramProver, ColdOverflowIsUnknown) {
  const Gwlb gwlb = workloads::make_gwlb(
      {.num_services = 6, .num_backends = 4, .seed = 5});
  const dp::Program reference = program_for(gwlb, cp::Representation::kGoto);
  ProgramProver prover({.max_nodes = 16});
  const Result result = prover.check(reference, reference);
  EXPECT_EQ(result.outcome, Outcome::kUnknown);
  EXPECT_FALSE(result.note.empty());
  EXPECT_EQ(prover.store_nodes(), 0u);  // a full store is not kept
}

TEST(ProgramProver, StoreStaysBoundedUnderChurn) {
  // The binding's loop: patch the live program, recompile a reference,
  // prove. Compaction must keep the store near its live set.
  Gwlb gwlb = workloads::make_gwlb(
      {.num_services = 24, .num_backends = 4, .seed = 2});
  cp::GwlbBinding binding(gwlb, cp::Representation::kGoto);
  ProgramProver prover;
  const std::size_t cold =
      prover.check(binding.program(), binding.program()).stats.nodes;
  Rng rng(17);
  for (std::size_t i = 0; i < 200; ++i) {
    const cp::ChangeBackend intent{rng.index(24), rng.index(4),
                                   1000 + rng.index(64)};
    ASSERT_TRUE(binding.compile_intent(intent).is_ok());
    const dp::Program reference = program_for(binding.gwlb(),
                                              cp::Representation::kGoto);
    const Result result = prover.check(binding.program(), reference);
    ASSERT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
    EXPECT_LE(prover.store_nodes(), 2 * cold) << "intent " << i;
    // One service changed: its table and the entry table are patched,
    // not re-folded, so the proof interns a small fraction of a cold one.
    EXPECT_LT(result.stats.nodes, cold / 8) << "intent " << i;
  }
  EXPECT_EQ(prover.resets(), 0u);
}

TEST(BindingProofs, ChangeBackendRefoldsOnlyTheTouchedTables) {
  // 100 x 8 goto: 101 tables per program. Once the initial proof has
  // filled the cache, a backend swap changes one service table and,
  // through its successor diagram, the entry table of the live program:
  // two misses, the entry table's a successor patch. The swap leaves
  // the entry table's rows alone, so of the reference only the
  // service's LB table is re-lowered: every table is marked stale by
  // name (names do not enter a proof) before the intent, and only the
  // re-lowered one loses the mark. The reference's tables are then all
  // hits, its LB table on the entry the live side just made.
  const cp::RepresentationDescriptor& goto_desc =
      cp::descriptor(cp::Representation::kGoto);
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 100, .num_backends = 8,
                            .seed = 1}),
      cp::Representation::kGoto, cp::CompileMode::kIncremental,
      cp::AnalyzeMode::kOff, cp::VerifyMode::kSymbolic);
  ASSERT_EQ(binding.verify_stats().verified, 1u);
  ASSERT_EQ(binding.program().tables.size(), 101u);
  Rng rng(23);
  for (std::size_t i = 0; i < 24; ++i) {
    const cp::VerifyStats before = binding.verify_stats();
    const cp::ChangeBackend intent{rng.index(100), rng.index(8),
                                   2000 + rng.index(512)};
    dp::Program& reference = cp::GwlbBindingInternals::reference(binding);
    for (dp::TableSpec& table : reference.tables) table.name = "stale";
    ASSERT_TRUE(binding.compile_intent(intent).is_ok());
    const cp::VerifyStats after = binding.verify_stats();
    ASSERT_EQ(after.verified, before.verified + 1)
        << binding.last_verify_note();
    EXPECT_LE(after.table_misses - before.table_misses, 2u);
    EXPECT_GE(after.table_hits - before.table_hits, 2u * 101u - 2u);
    const std::size_t entry = goto_desc.table_of(0, intent.service, 100);
    const std::size_t lb = goto_desc.table_of(1, intent.service, 100);
    ASSERT_EQ(entry, reference.entry);
    for (std::size_t t = 0; t < reference.tables.size(); ++t) {
      EXPECT_EQ(reference.tables[t].name != "stale", t == lb)
          << "intent " << i << ", table " << t;
    }
  }
}

TEST(BindingProofs, DriftInAnUntouchedTableIsRefuted) {
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 16, .num_backends = 4,
                            .seed = 8}),
      cp::Representation::kGoto, cp::CompileMode::kIncremental,
      cp::AnalyzeMode::kOff, cp::VerifyMode::kSymbolic);
  // Warm the prover on intents that touch service 0 only.
  for (std::uint64_t out = 1; out <= 3; ++out) {
    ASSERT_TRUE(binding.compile_intent(cp::ChangeBackend{0, 0, 500 + out})
                    .is_ok());
  }
  ASSERT_EQ(binding.verify_stats().verified, 4u);
  ASSERT_EQ(binding.verify_stats().failed, 0u);

  // Corrupt the last service's table: no intent below touches it.
  dp::Program& live = cp::GwlbBindingInternals::program(binding);
  const std::size_t victim = live.tables.size() - 1;
  ASSERT_NE(victim, live.entry);
  edit_table(live, victim, [](std::vector<dp::Rule>& rules) {
    ASSERT_FALSE(rules.empty());
    ASSERT_FALSE(rules.front().actions.empty());
    rules.front().actions.front().value ^= 0x40;
  });
  ASSERT_TRUE(binding.compile_intent(cp::ChangeBackend{0, 1, 777}).is_ok());
  EXPECT_EQ(binding.verify_stats().failed, 1u);
  EXPECT_FALSE(binding.last_verify_note().empty());
}

TEST(BindingProofs, InPlaceDriftInAnUntouchedTableIsRefuted) {
  // As above, but the drift is an in-place FlatRules edit: the table
  // object, its position and its size stay, and only its revision tells
  // the warm prover that the rules changed.
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 16, .num_backends = 4,
                            .seed = 8}),
      cp::Representation::kGoto, cp::CompileMode::kIncremental,
      cp::AnalyzeMode::kOff, cp::VerifyMode::kSymbolic);
  for (std::uint64_t out = 1; out <= 3; ++out) {
    ASSERT_TRUE(binding.compile_intent(cp::ChangeBackend{0, 0, 500 + out})
                    .is_ok());
  }
  ASSERT_EQ(binding.verify_stats().failed, 0u);
  dp::Program& live = cp::GwlbBindingInternals::program(binding);
  const std::size_t victim = live.tables.size() - 1;
  dp::Rule drifted = live.tables[victim].rules[0];
  drifted.actions.front().value ^= 0x40;
  live.tables[victim].rules.replace(0, drifted);
  ASSERT_TRUE(binding.compile_intent(cp::ChangeBackend{0, 1, 777}).is_ok());
  EXPECT_EQ(binding.verify_stats().failed, 1u);
}

TEST(BindingProofs, AWarmProofKeysOnlyTheTouchedTables) {
  // 100 x 8 goto, 101 tables per program. A backend swap changes one
  // service table of each program, which is keyed. The entry table keeps
  // its rules on both sides (the reference does not re-lower it), so it
  // is patched for its moved successor without a key: at most two keys
  // per proof, where keying every table would build 202.
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 100, .num_backends = 8,
                            .seed = 1}),
      cp::Representation::kGoto, cp::CompileMode::kIncremental,
      cp::AnalyzeMode::kOff, cp::VerifyMode::kSymbolic);
  ASSERT_EQ(binding.verify_stats().verified, 1u);
  EXPECT_EQ(binding.verify_stats().tables_keyed, 2u * 101u);  // cold
  Rng rng(29);
  for (std::size_t i = 0; i < 24; ++i) {
    const cp::VerifyStats before = binding.verify_stats();
    ASSERT_TRUE(binding
                    .compile_intent(cp::ChangeBackend{
                        rng.index(100), rng.index(8), 2000 + rng.index(512)})
                    .is_ok());
    const cp::VerifyStats after = binding.verify_stats();
    ASSERT_EQ(after.verified, before.verified + 1)
        << binding.last_verify_note();
    EXPECT_LE(after.tables_keyed - before.tables_keyed, 2u) << "intent " << i;
  }
}

/// Entry table 0 sends ip_dst 1 to table 1 and ip_dst 2 to table 2; each
/// of those matches ip_src. Table 2's first rule (11.1/16) lies inside
/// its second (11/8).
dp::Program two_services() {
  const auto src = [](std::uint64_t value, unsigned plen, std::uint64_t out) {
    dp::Rule rule;
    rule.priority = plen;
    const std::uint64_t mask = (0xffffffffu << (32 - plen)) & 0xffffffffu;
    rule.matches.push_back({dp::FieldId::kIpSrc, value & mask, mask});
    rule.actions.push_back({dp::Action::Kind::kOutput, dp::FieldId::kMeta0, out});
    return rule;
  };
  const auto dst = [](std::uint64_t vip, std::size_t table) {
    dp::Rule rule;
    rule.priority = 32;
    rule.matches.push_back({dp::FieldId::kIpDst, vip, 0xffffffffu});
    rule.goto_table = table;
    return rule;
  };
  dp::Program program;
  program.tables.push_back({.name = "entry", .rules = {dst(1, 1), dst(2, 2)}});
  program.tables.push_back(
      {.name = "lb1",
       .rules = {src(0x0a000000, 8, 11), src(0x0c000000, 8, 13)}});
  program.tables.push_back(
      {.name = "lb2",
       .rules = {src(0x0b010000, 16, 21), src(0x0b000000, 8, 23)}});
  return program;
}

/// A catch-all rule with output `out`.
dp::Rule catch_all(std::uint32_t priority, std::uint64_t out) {
  dp::Rule rule;
  rule.priority = priority;
  rule.actions.push_back({dp::Action::Kind::kOutput, dp::FieldId::kMeta0, out});
  return rule;
}

struct InPlaceDrift {
  const char* name;
  /// Edits table 2 of the program in place. `prove` runs a warm check
  /// between two steps of a multi-step edit.
  void (*edit)(dp::Program& program, const std::function<void()>& prove);
};

class InPlaceDriftIsRefuted : public ::testing::TestWithParam<InPlaceDrift> {};

TEST_P(InPlaceDriftIsRefuted, ByAWarmProverAsByACold) {
  const dp::Program reference = two_services();
  dp::Program live = reference;
  ProgramProver prover;
  const auto prove = [&] {
    const Result warm = prover.check(live, reference);
    expect_same(warm, check_programs(live, reference), live, reference);
  };
  // Warm every slot, touching table 1 only.
  ASSERT_EQ(prover.check(live, reference).outcome, Outcome::kEquivalent);
  live.tables[1].rules.replace(0, live.tables[1].rules[0]);
  ASSERT_EQ(prover.check(live, reference).outcome, Outcome::kEquivalent);
  const std::uint64_t revision = live.tables[2].rules.revision();

  GetParam().edit(live, prove);
  ASSERT_FALSE(HasFatalFailure());
  const Result warm = prover.check(live, reference);
  EXPECT_EQ(warm.outcome, Outcome::kInequivalent) << warm.note;
  expect_same(warm, check_programs(live, reference), live, reference);
  if (std::string_view(GetParam().name) != "retarget_next") {
    EXPECT_NE(live.tables[2].rules.revision(), revision);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Mutators, InPlaceDriftIsRefuted,
    ::testing::Values(
        InPlaceDrift{"replace",
                     [](dp::Program& p, const std::function<void()>&) {
                       dp::Rule rule = p.tables[2].rules[0];
                       rule.actions[0].value = 99;
                       p.tables[2].rules.replace(0, rule);
                     }},
        InPlaceDrift{"insert",
                     [](dp::Program& p, const std::function<void()>&) {
                       p.tables[2].rules.insert(0, catch_all(0, 98));
                     }},
        InPlaceDrift{"insert_sorted",
                     [](dp::Program& p, const std::function<void()>&) {
                       (void)p.tables[2].rules.insert_sorted(catch_all(0, 98));
                     }},
        InPlaceDrift{"push_back",
                     [](dp::Program& p, const std::function<void()>&) {
                       p.tables[2].rules.push_back(catch_all(0, 98));
                     }},
        InPlaceDrift{"erase",
                     [](dp::Program& p, const std::function<void()>&) {
                       p.tables[2].rules.erase(0);
                     }},
        InPlaceDrift{"clear",
                     [](dp::Program& p, const std::function<void()>&) {
                       p.tables[2].rules.clear();
                     }},
        // Raising the covering rule's priority keeps its scan position
        // (and the table's function) until it is re-slotted ahead of the
        // rule it covers.
        InPlaceDrift{"reposition",
                     [](dp::Program& p, const std::function<void()>& prove) {
                       dp::Rule rule = p.tables[2].rules[1];
                       rule.priority = 40;
                       p.tables[2].rules.replace(1, rule);
                       prove();
                       EXPECT_EQ(p.tables[2].rules.reposition(1), 0u);
                     }},
        InPlaceDrift{"stable_sort_by_priority",
                     [](dp::Program& p, const std::function<void()>& prove) {
                       dp::Rule rule = p.tables[2].rules[1];
                       rule.priority = 40;
                       p.tables[2].rules.replace(1, rule);
                       prove();
                       p.tables[2].rules.stable_sort_by_priority();
                     }},
        InPlaceDrift{"retarget_next",
                     [](dp::Program& p, const std::function<void()>&) {
                       p.tables[2].next = 1;
                     }}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(ProgramProver, DriftSeenOnlyThroughASuccessorIsRefutedByItsPatch) {
  // Table 2 drifts in place. The entry table keeps its rules and its
  // revision on both sides, so its diagram changes only through its
  // successor word for table 2: the warm prover patches it for that
  // successor without a key, and the patched roots must tell the
  // programs apart.
  const dp::Program reference = two_services();
  dp::Program live = reference;
  ProgramProver prover;
  ASSERT_EQ(prover.check(live, reference).outcome, Outcome::kEquivalent);
  const Result settled = prover.check(live, reference);
  ASSERT_EQ(settled.outcome, Outcome::kEquivalent);
  ASSERT_EQ(settled.stats.tables_keyed, 0u);  // every slot vouches

  dp::Rule drifted = live.tables[2].rules[1];
  drifted.actions[0].value = 99;
  live.tables[2].rules.replace(1, drifted);
  const Result warm = prover.check(live, reference);
  EXPECT_EQ(warm.outcome, Outcome::kInequivalent) << warm.note;
  expect_same(warm, check_programs(live, reference), live, reference);
  EXPECT_EQ(warm.stats.tables_keyed, 1u);  // the drifted table alone
  // The live entry table, then the reference's, which shares its cache
  // entry and patches it back to its own successor.
  EXPECT_EQ(warm.stats.successor_patches, 2u);

  // Undoing the drift keys table 2 onto the reference's entry; both
  // entry tables then match the cached successor words again.
  live.tables[2].rules.replace(1, reference.tables[2].rules[1]);
  const Result healed = prover.check(live, reference);
  EXPECT_EQ(healed.outcome, Outcome::kEquivalent) << healed.note;
  EXPECT_EQ(healed.stats.tables_keyed, 1u);
  EXPECT_EQ(healed.stats.successor_patches, 0u);
}

}  // namespace
}  // namespace maton::analysis::symbolic

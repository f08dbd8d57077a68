// Unit tests of the symbolic equivalence engine: diagram-store algebra,
// the three front-ends, counterexample confirmation and budget bail-out.
#include "analysis/symbolic/engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <optional>
#include <span>
#include <vector>

#include "controlplane/representation.hpp"
#include "dataplane/program.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"

namespace maton::analysis::symbolic {
namespace {

using workloads::Gwlb;

dp::Program compiled(const core::Pipeline& pipeline) {
  auto result = dp::compile(pipeline);
  EXPECT_TRUE(result.is_ok());
  return std::move(result).value();
}

TEST(DiagramStore, BooleanAlgebraIsCanonical) {
  DiagramStore dd(1 << 16);
  const std::vector<CubeBit> xs = {{0, true}};
  const std::vector<CubeBit> ys = {{1, false}};
  const NodeId x = dd.cube(xs);
  const NodeId y = dd.cube(ys);

  EXPECT_EQ(dd.b_and(x, x), x);
  EXPECT_EQ(dd.b_or(x, x), x);
  EXPECT_EQ(dd.b_or(x, dd.b_not(x)), dd.true_leaf());
  EXPECT_EQ(dd.b_and(x, dd.b_not(x)), dd.false_leaf());
  // De Morgan, canonical by construction.
  EXPECT_EQ(dd.b_not(dd.b_and(x, y)),
            dd.b_or(dd.b_not(x), dd.b_not(y)));
  // ite collapses equal branches and orders variables globally.
  EXPECT_EQ(dd.ite(x, y, y), y);
  EXPECT_EQ(dd.ite(dd.true_leaf(), x, y), x);
  EXPECT_EQ(dd.ite(x, dd.true_leaf(), dd.false_leaf()), x);
}

TEST(DiagramStore, OverlayFirstIsLeftBiased) {
  DiagramStore dd(1 << 16);
  const NodeId miss = dd.leaf(7);
  const NodeId left = dd.leaf(8);
  const NodeId right = dd.leaf(9);
  const std::vector<CubeValue> key = {{0, 42}};
  const NodeId a = dd.ite(dd.value_cube(key), left, miss);
  const NodeId b = dd.ite(dd.value_cube(key), right, miss);
  // Same key on both sides: the earlier (left) row must win.
  EXPECT_EQ(dd.overlay_first(a, b, miss), a);
  EXPECT_EQ(dd.overlay_first(b, a, miss), b);
  // The identity operand is transparent.
  EXPECT_EQ(dd.overlay_first(miss, a, miss), a);
  EXPECT_EQ(dd.overlay_first(a, miss, miss), a);
}

TEST(DiagramStore, CompactKeepsRootsCanonical) {
  DiagramStore dd(1 << 16);
  const std::vector<CubeBit> xs = {{2, true}, {5, false}, {9, true}};
  const std::vector<CubeBit> ys = {{1, false}, {5, true}};
  const std::vector<CubeValue> key = {{20, 42}};
  const auto build = [&] {
    const NodeId bits = dd.b_or(dd.cube(xs), dd.cube(ys));
    return dd.ite(bits, dd.ite(dd.value_cube(key), dd.leaf(77), dd.leaf(78)),
                  dd.false_leaf());
  };
  std::vector<NodeId> roots = {build()};
  static_cast<void>(dd.b_and(dd.cube(xs), dd.b_not(dd.cube(ys))));  // garbage
  const std::size_t before = dd.num_nodes();
  dd.compact(roots);
  EXPECT_LT(dd.num_nodes(), before);
  // Survivors are renumbered and rehashed: rebuilding the function
  // interns onto the kept root, and the boolean leaves keep their ids.
  EXPECT_EQ(build(), roots[0]);
  EXPECT_EQ(dd.leaf(0), dd.false_leaf());
  EXPECT_EQ(dd.leaf(1), dd.true_leaf());
  // Compacting to nothing leaves only the boolean leaves.
  dd.compact({});
  EXPECT_EQ(dd.num_nodes(), 2u);
}

TEST(DiagramStore, RepeatedInPlaceCompactionsSlideValueEdges) {
  DiagramStore dd(1 << 16);
  // Var 20 dispatches on three values (10 * v + salt) to a bit test on
  // var 30 + v; any other value reaches leaf 300.
  const auto dispatch = [&dd](std::uint64_t salt) {
    std::vector<DiagramStore::Edge> edges;
    for (std::uint32_t v = 0; v < 3; ++v) {
      const NodeId hit = dd.leaf(100 + salt);
      const NodeId miss = dd.leaf(200);
      edges.emplace_back(10 * v + salt, (salt + v) % 2 == 0
                                            ? dd.bit_node(30 + v, miss, hit)
                                            : dd.bit_node(30 + v, hit, miss));
    }
    return dd.value_node(20, edges, dd.leaf(300));
  };
  const std::vector<CubeBit> xs = {{3, true}, {7, false}};
  std::vector<NodeId> roots;
  for (std::uint64_t round = 0; round < 6; ++round) {
    // Garbage first, so the kept nodes and their value edges slide down
    // over it. Its operator results stay cached until the compaction: the
    // kept nodes take over the garbage's ids, and a stale entry would
    // answer for them.
    const NodeId junk = dispatch(1000 + round);
    const NodeId junk_bits = dd.cube(xs);
    static_cast<void>(dd.b_not(junk_bits));
    static_cast<void>(dd.b_and(junk_bits, dd.b_not(junk_bits)));
    static_cast<void>(dd.ite(junk_bits, junk, dd.leaf(300)));
    roots.push_back(dispatch(round));
    static_cast<void>(dispatch(2000 + round));  // garbage after, too
    const std::size_t before = dd.num_nodes();
    dd.compact(roots);
    ASSERT_LT(dd.num_nodes(), before) << "round " << round;
    const std::size_t kept = dd.num_nodes();
    for (std::uint64_t salt = 0; salt <= round; ++salt) {
      // Rebuilding a kept diagram interns onto its root, node for node.
      EXPECT_EQ(dispatch(salt), roots[salt]) << "round " << round;
      EXPECT_EQ(dd.max_edge_value(roots[salt], 20), 20 + salt);
      // A divergence between two kept roots walks their slid edges.
      if (salt > 0) {
        const auto div = dd.first_divergence(roots[salt - 1], roots[salt]);
        ASSERT_TRUE(div.has_value());
        ASSERT_FALSE(div->path.empty());
        EXPECT_EQ(div->path[0].var, 20u);
      }
    }
    EXPECT_EQ(dd.num_nodes(), kept) << "round " << round;
    // Operations after the compaction answer from the rebuilt indexes,
    // never from a stale cache entry.
    const NodeId x = dd.cube(xs);
    EXPECT_EQ(dd.b_and(x, dd.b_not(x)), dd.false_leaf());
    EXPECT_EQ(dd.b_or(x, dd.b_not(x)), dd.true_leaf());
    const NodeId picked = dd.ite(x, roots[0], dd.leaf(300));
    EXPECT_EQ(dd.ite(x, picked, dd.leaf(300)), picked);
    EXPECT_EQ(dd.ite(dd.b_not(x), dd.leaf(300), roots[0]), picked);
  }
}

TEST(DiagramStore, FirstDivergenceWalksToDifferingLeaves) {
  DiagramStore dd(1 << 16);
  const std::vector<CubeBit> xs = {{3, true}};
  const NodeId x = dd.cube(xs);
  EXPECT_FALSE(dd.first_divergence(x, x).has_value());
  const auto div = dd.first_divergence(x, dd.true_leaf());
  ASSERT_TRUE(div.has_value());
  EXPECT_NE(div->left, div->right);
  ASSERT_EQ(div->path.size(), 1u);
  EXPECT_EQ(div->path[0].var, 3u);
}

TEST(DiagramStore, NodeBudgetThrows) {
  DiagramStore dd(4);
  std::vector<CubeBit> bits;
  for (std::uint32_t v = 0; v < 16; ++v) bits.push_back({v, true});
  EXPECT_THROW(static_cast<void>(dd.cube(bits)), NodeBudgetExceeded);
}

/// `count` random ternary cubes over vars [0, vars), 3-9 bits each.
std::vector<std::vector<CubeBit>> random_cubes(std::uint64_t seed,
                                               std::size_t count,
                                               std::uint32_t vars) {
  Rng rng(seed);
  std::vector<std::vector<CubeBit>> cubes(count);
  for (auto& cube : cubes) {
    std::vector<std::uint32_t> picked;
    const std::size_t bits = 3 + rng.index(7);
    while (picked.size() < bits) {
      const auto v = static_cast<std::uint32_t>(rng.index(vars));
      if (std::find(picked.begin(), picked.end(), v) == picked.end()) {
        picked.push_back(v);
      }
    }
    std::sort(picked.begin(), picked.end());
    for (const std::uint32_t v : picked) cube.push_back({v, rng.chance(0.5)});
  }
  return cubes;
}

TEST(DiagramStore, CanonicalUnderComputedCacheEviction) {
  // The operator cache is lossy, with at most two slots per node. The
  // pairwise rounds below make many times more operator applications
  // than that without creating nodes, so most cached results are evicted
  // and recomputed; canonicity must not depend on which ones survive.
  DiagramStore dd(1 << 22);
  const auto cubes = random_cubes(7, 300, 12);
  const auto others = random_cubes(8, 100, 12);
  const auto union_of = [&dd](const auto& list,
                              std::vector<NodeId>* prefixes = nullptr) {
    NodeId acc = dd.false_leaf();
    for (const auto& cube : list) {
      acc = dd.b_or(acc, dd.cube(cube));
      if (prefixes != nullptr) prefixes->push_back(acc);
    }
    return acc;
  };
  std::vector<NodeId> prefixes;
  const NodeId forward = union_of(cubes, &prefixes);
  Rng rng(9);
  auto order = cubes;
  for (int round = 0; round < 4; ++round) {
    for (std::size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.index(k)]);
    }
    ASSERT_EQ(union_of(order), forward) << "order " << round;
  }
  // Balanced pairwise fold: yet another operation order.
  std::vector<NodeId> level;
  for (const auto& cube : cubes) level.push_back(dd.cube(cube));
  while (level.size() > 1) {
    std::vector<NodeId> next;
    for (std::size_t k = 0; k + 1 < level.size(); k += 2) {
      next.push_back(dd.b_or(level[k], level[k + 1]));
    }
    if (level.size() % 2 == 1) next.push_back(level.back());
    level = std::move(next);
  }
  EXPECT_EQ(level[0], forward);

  // Prefix unions nest (r_i ⊆ r_j for i < j), so every pair's meet and
  // join is already interned: the pairs below add operator traffic but
  // no nodes.
  const std::size_t nodes = dd.num_nodes();
  const std::uint64_t lookups_before = dd.stats().memo_lookups;
  for (int round = 0; round < 6; ++round) {
    for (std::size_t i = 0; i < prefixes.size(); ++i) {
      for (std::size_t j = i + 1; j < prefixes.size(); ++j) {
        ASSERT_EQ(dd.b_or(prefixes[i], prefixes[j]), prefixes[j]);
        ASSERT_EQ(dd.b_and(prefixes[i], prefixes[j]), prefixes[i]);
      }
    }
    ASSERT_EQ(union_of(cubes), forward) << "round " << round;
  }
  EXPECT_EQ(dd.num_nodes(), nodes);
  const std::size_t slots = std::bit_ceil(std::max<std::size_t>(4096, nodes));
  EXPECT_GT(dd.stats().memo_lookups - lookups_before, 16 * slots)
      << "not enough operator traffic to wrap the cache";

  const NodeId g = union_of(others);
  EXPECT_EQ(dd.b_not(dd.b_and(forward, g)),
            dd.b_or(dd.b_not(forward), dd.b_not(g)));
  EXPECT_EQ(dd.b_not(dd.b_or(forward, g)),
            dd.b_and(dd.b_not(forward), dd.b_not(g)));
  EXPECT_EQ(dd.b_not(dd.b_not(forward)), forward);
  // ite(p, t, e) = (p ∧ t) ∨ (¬p ∧ e) over boolean operands.
  const NodeId p = prefixes[20];
  EXPECT_EQ(dd.ite(p, forward, g),
            dd.b_or(dd.b_and(p, forward), dd.b_and(dd.b_not(p), g)));
}

TEST(DiagramStore, UniqueTableGrowsPastTwoToTheTwenty) {
  DiagramStore dd(1 << 22);
  constexpr std::uint64_t kPairs = 360000;  // 3 nodes each: > 2^20
  std::vector<NodeId> ids;
  ids.reserve(kPairs);
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    ids.push_back(dd.bit_node(0, dd.leaf(2 * i + 10), dd.leaf(2 * i + 11)));
  }
  const std::size_t nodes = dd.num_nodes();
  ASSERT_GT(nodes, std::size_t{1} << 20);
  // Re-interning finds every node again, across every rehash.
  for (std::uint64_t i = 0; i < kPairs; ++i) {
    ASSERT_EQ(dd.bit_node(0, dd.leaf(2 * i + 10), dd.leaf(2 * i + 11)),
              ids[i])
        << "pair " << i;
  }
  EXPECT_EQ(dd.num_nodes(), nodes);
  EXPECT_EQ(dd.leaf_payload(dd.leaf(2 * kPairs + 9)), 2 * kPairs + 9);
}

TEST(DiagramStore, RewriterMemoSurvivesNestedRewrites) {
  DiagramStore dd(1 << 16);
  const auto cubes = random_cubes(11, 24, 12);
  NodeId table = dd.leaf(100);  // first-match table, leaf k = rule k
  for (std::size_t k = cubes.size(); k-- > 0;) {
    table = dd.ite(dd.cube(cubes[k]), dd.leaf(k), table);
  }
  const auto shift = [](std::uint64_t p) { return p + 1000; };
  const auto fix_low = [](std::uint32_t var) -> std::optional<std::uint64_t> {
    if (var < 4) return var % 2;
    return std::nullopt;
  };
  const NodeId shifted = dd.map_leaves(table, shift);
  const NodeId fixed = dd.restrict_with(table, fix_low);

  // The same rewrites, each leaf callback running rewrites of its own
  // over the same diagram (later epochs that overwrite the outer memo).
  std::size_t nested = 0;
  const NodeId shifted_nested =
      dd.map_leaves(table, [&](std::uint64_t p) {
        EXPECT_EQ(dd.restrict_with(table, fix_low), fixed);
        EXPECT_EQ(dd.map_leaves(table, shift), shifted);
        ++nested;
        return shift(p);
      });
  EXPECT_GT(nested, 0u);
  EXPECT_EQ(shifted_nested, shifted);
  std::size_t calls = 0;
  const NodeId fixed_nested = dd.restrict_with(table, [&](std::uint32_t v) {
    if (calls++ % 16 == 0) {
      EXPECT_EQ(dd.map_leaves(table, shift), shifted);
    }
    return fix_low(v);
  });
  EXPECT_EQ(fixed_nested, fixed);

  // A memo entry of one rewrite never answers for the next.
  const NodeId back = dd.map_leaves(shifted, [](std::uint64_t p) {
    return p - 1000;
  });
  EXPECT_EQ(back, table);
  EXPECT_NE(dd.map_leaves(table, [](std::uint64_t) { return 5; }), table);
  EXPECT_EQ(dd.map_leaves(table, [](std::uint64_t p) { return p; }), table);
}

TEST(CheckPrograms, PaperDecompositionsAreEquivalent) {
  const Gwlb gwlb = workloads::make_paper_example();
  const dp::Program universal =
      compiled(core::Pipeline::single(gwlb.universal));
  const dp::Program goto_prog =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  const dp::Program meta_prog =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kMetadata));
  const dp::Program rematch_prog =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kRematch));

  for (const dp::Program* p :
       {&goto_prog, &meta_prog, &rematch_prog}) {
    const Result result = check_programs(universal, *p);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
  EXPECT_TRUE(check_programs(goto_prog, meta_prog).equivalent());
  EXPECT_TRUE(check_programs(meta_prog, rematch_prog).equivalent());
}

TEST(CheckPrograms, RandomInstancesAreEquivalent) {
  for (const std::uint64_t seed : {2ull, 3ull, 4ull}) {
    const Gwlb gwlb = workloads::make_gwlb(
        {.num_services = 12, .num_backends = 4, .seed = seed});
    const dp::Program universal =
        compiled(core::Pipeline::single(gwlb.universal));
    const dp::Program goto_prog =
        compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
    const Result result = check_programs(universal, goto_prog);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
}

TEST(CheckPrograms, MutatedBackendYieldsConfirmedCounterexample) {
  const Gwlb gwlb = workloads::make_paper_example();
  Gwlb mutated = gwlb;
  mutated.services[1].backends[0] ^= 1;  // reroute one backend
  const dp::Program left =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  const dp::Program right =
      compiled(cp::pipeline_for(mutated, cp::Representation::kGoto));

  const Result result = check_programs(left, right);
  ASSERT_EQ(result.outcome, Outcome::kInequivalent);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_TRUE(result.counterexample->key.has_value());
  // The engine promises the scalar interpreter confirms the witness.
  const dp::FlowKey key = *result.counterexample->key;
  const dp::ExecResult ea = dp::execute_reference(left, key);
  const dp::ExecResult eb = dp::execute_reference(right, key);
  EXPECT_TRUE(ea.hit != eb.hit || ea.out_port != eb.out_port)
      << result.counterexample->description;
}

TEST(CheckPrograms, PrioritySwapOfDisjointRulesIsEquivalent) {
  // Two rules on disjoint keys: scan order must not matter.
  const auto rule = [](std::uint32_t prio, std::uint64_t vip,
                       std::uint64_t out) {
    dp::Rule r;
    r.priority = prio;
    r.matches = {{dp::FieldId::kIpDst, vip,
                  dp::field_full_mask(dp::FieldId::kIpDst)}};
    r.actions = {
        {dp::Action::Kind::kOutput, dp::FieldId::kInPort, out, 16}};
    return r;
  };
  dp::Program a;
  a.tables.push_back({"t", {dp::FieldId::kIpDst}, {}, std::nullopt});
  a.tables[0].rules.push_back(rule(2, 0xa000001, 7));
  a.tables[0].rules.push_back(rule(1, 0xa000002, 8));
  dp::Program b;
  b.tables.push_back({"t", {dp::FieldId::kIpDst}, {}, std::nullopt});
  b.tables[0].rules.push_back(rule(2, 0xa000002, 8));
  b.tables[0].rules.push_back(rule(1, 0xa000001, 7));

  EXPECT_TRUE(check_programs(a, b).equivalent());
}

TEST(CheckPrograms, TinyBudgetReportsUnknownNeverWrong) {
  const Gwlb gwlb = workloads::make_paper_example();
  const dp::Program universal =
      compiled(core::Pipeline::single(gwlb.universal));
  const dp::Program goto_prog =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  Options options;
  options.max_nodes = 8;
  const Result result = check_programs(universal, goto_prog, options);
  EXPECT_EQ(result.outcome, Outcome::kUnknown);
  EXPECT_FALSE(result.note.empty());
}

TEST(CheckPrograms, EveryBudgetIsUnknownOrRight) {
  // Sweeping the node budget through the whole build: each run either
  // runs out (kUnknown) or gives the verdict of the unbounded run.
  const Gwlb gwlb = workloads::make_gwlb(
      {.num_services = 6, .num_backends = 4, .seed = 5});
  Gwlb mutated = gwlb;
  mutated.services[3].backends[2] ^= 1;
  const dp::Program universal =
      compiled(core::Pipeline::single(gwlb.universal));
  const dp::Program goto_prog =
      compiled(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  const dp::Program wrong =
      compiled(cp::pipeline_for(mutated, cp::Representation::kGoto));
  const std::size_t full = check_programs(universal, wrong).stats.nodes;
  std::size_t unknowns = 0;
  for (std::size_t budget = 2; budget <= full + 1; budget += 1 + full / 64) {
    Options options;
    options.max_nodes = budget;
    const Result same = check_programs(universal, goto_prog, options);
    const Result differ = check_programs(universal, wrong, options);
    EXPECT_NE(same.outcome, Outcome::kInequivalent) << "budget " << budget;
    EXPECT_NE(differ.outcome, Outcome::kEquivalent) << "budget " << budget;
    if (differ.outcome == Outcome::kUnknown) ++unknowns;
  }
  EXPECT_GT(unknowns, 0u);
  Options roomy;
  roomy.max_nodes = full + 1;
  EXPECT_EQ(check_programs(universal, wrong, roomy).outcome,
            Outcome::kInequivalent);
}

TEST(CheckPipelines, DecompositionsMatchUniversalTable) {
  const Gwlb gwlb = workloads::make_paper_example();
  for (const core::Pipeline& pipeline :
       {cp::pipeline_for(gwlb, cp::Representation::kGoto),
        cp::pipeline_for(gwlb, cp::Representation::kMetadata),
        cp::pipeline_for(gwlb, cp::Representation::kRematch)}) {
    const Result result =
        check_table_vs_pipeline(gwlb.universal, pipeline);
    EXPECT_EQ(result.outcome, Outcome::kEquivalent) << result.note;
  }
}

TEST(CheckPipelines, MutationYieldsConfirmedCounterexample) {
  const Gwlb gwlb = workloads::make_paper_example();
  Gwlb mutated = gwlb;
  mutated.services[0].backends[1] ^= 1;
  const core::Pipeline pipeline =
      cp::pipeline_for(mutated, cp::Representation::kGoto);

  const Result result = check_table_vs_pipeline(gwlb.universal, pipeline);
  ASSERT_EQ(result.outcome, Outcome::kInequivalent);
  ASSERT_TRUE(result.counterexample.has_value());
  ASSERT_TRUE(result.counterexample->packet.has_value());
  const core::PacketState& packet = *result.counterexample->packet;
  const core::EvalResult ea =
      core::Pipeline::single(gwlb.universal).evaluate(packet);
  const core::EvalResult eb = pipeline.evaluate(packet);
  EXPECT_TRUE(ea.hit != eb.hit || ea.actions != eb.actions)
      << result.counterexample->description;
}

TEST(Describe, VerdictCarriesItsEvidence) {
  const Gwlb gwlb = workloads::make_paper_example();
  Gwlb mutated = gwlb;
  mutated.services[0].backends[1] ^= 1;
  const core::Pipeline right =
      cp::pipeline_for(gwlb, cp::Representation::kGoto);
  const core::Pipeline wrong =
      cp::pipeline_for(mutated, cp::Representation::kGoto);

  EXPECT_EQ(describe(check_table_vs_pipeline(gwlb.universal, right)), "yes");
  const Result refuted = check_table_vs_pipeline(gwlb.universal, wrong);
  ASSERT_EQ(refuted.outcome, Outcome::kInequivalent);
  EXPECT_EQ(describe(refuted),
            "NO: " + refuted.counterexample->description);
  Options starved;
  starved.max_nodes = 8;
  const Result unknown =
      check_table_vs_pipeline(gwlb.universal, right, starved);
  ASSERT_EQ(unknown.outcome, Outcome::kUnknown);
  EXPECT_EQ(describe(unknown), "unknown: " + unknown.note);
}

TEST(SlicesRelation, DisjointAndIntersectingRegions) {
  const auto vip_rule = [](std::uint64_t vip) {
    dp::Rule r;
    r.priority = 1;
    r.matches = {{dp::FieldId::kIpDst, vip,
                  dp::field_full_mask(dp::FieldId::kIpDst)}};
    return r;
  };
  const std::vector<dp::Rule> a = {vip_rule(0xa000001)};
  const std::vector<dp::Rule> b = {vip_rule(0xa000002)};
  const std::vector<dp::Rule> c = {vip_rule(0xa000001), vip_rule(0xb000001)};
  EXPECT_EQ(slices_relation(a, b), SliceRelation::kDisjoint);
  EXPECT_EQ(slices_relation(a, c), SliceRelation::kIntersecting);
  EXPECT_EQ(slices_relation(a, {}), SliceRelation::kDisjoint);
}

/// The diagram answer: each slice's rules folded into one union of cubes
/// in a diagram store, then DiagramStore::disjoint.
SliceRelation diagram_relation(std::span<const dp::Rule> a,
                               std::span<const dp::Rule> b) {
  DiagramStore dd(1 << 20);
  const auto region = [&dd](std::span<const dp::Rule> rules) {
    NodeId acc = dd.false_leaf();
    for (const dp::Rule& rule : rules) {
      std::array<std::uint64_t, dp::kNumFields> mask{};
      std::array<std::uint64_t, dp::kNumFields> value{};
      bool satisfiable = true;
      for (const dp::FieldMatch& m : rule.matches) {
        const std::size_t f = dp::field_index(m.field);
        if ((m.value & ~m.mask) != 0 ||
            ((value[f] ^ m.value) & mask[f] & m.mask) != 0) {
          satisfiable = false;
        }
        mask[f] |= m.mask;
        value[f] |= m.value;
      }
      if (!satisfiable) continue;
      std::vector<CubeBit> bits;  // ascending var: field, then high bit
      for (std::size_t f = 0; f < dp::kNumFields; ++f) {
        for (int bit = 63; bit >= 0; --bit) {
          if (((mask[f] >> bit) & 1) != 0) {
            bits.push_back({static_cast<std::uint32_t>(f * 64 + (63 - bit)),
                            ((value[f] >> bit) & 1) != 0});
          }
        }
      }
      acc = dd.b_or(acc, dd.cube(bits));
    }
    return acc;
  };
  return dd.disjoint(region(a), region(b)) ? SliceRelation::kDisjoint
                                           : SliceRelation::kIntersecting;
}

TEST(SlicesRelation, PairwiseAnswerEqualsTheDiagramAnswer) {
  // Random slices over a small value space, so both answers occur:
  // prefixes of one /24, a few ports, repeated matches on one field
  // (conjunctions, some unsatisfiable) and value bits outside the mask.
  Rng rng(0x511ce5);
  const auto random_rule = [&rng] {
    dp::Rule rule;
    rule.priority = 1;
    const std::uint64_t matches = rng.uniform(0, 3);
    for (std::uint64_t k = 0; k < matches; ++k) {
      switch (rng.uniform(0, 2)) {
        case 0: {
          const unsigned plen = static_cast<unsigned>(rng.uniform(24, 32));
          const std::uint64_t mask =
              (0xffffffffull << (32 - plen)) & 0xffffffffull;
          std::uint64_t value = (0x0a000000ull | rng.uniform(0, 255)) & mask;
          if (rng.chance(0.03)) value |= ~mask & 0xffffffffull & 1;
          rule.matches.push_back({dp::FieldId::kIpDst, value, mask});
          break;
        }
        case 1:
          rule.matches.push_back(
              {dp::FieldId::kTcpDst, 80 + 363 * rng.uniform(0, 2), 0xffff});
          break;
        default:
          rule.matches.push_back(
              {dp::FieldId::kIpProto, rng.chance(0.5) ? 6u : 17u, 0xff});
          break;
      }
    }
    return rule;
  };
  std::size_t disjoint = 0;
  std::size_t intersecting = 0;
  for (int trial = 0; trial < 600; ++trial) {
    std::vector<dp::Rule> a(rng.uniform(0, 6));
    std::vector<dp::Rule> b(rng.uniform(0, 6));
    for (dp::Rule& r : a) r = random_rule();
    for (dp::Rule& r : b) r = random_rule();
    const SliceRelation want = diagram_relation(a, b);
    ASSERT_EQ(slices_relation(a, b), want) << "trial " << trial;
    ASSERT_EQ(slices_relation(b, a), want) << "trial " << trial;
    (want == SliceRelation::kDisjoint ? disjoint : intersecting) += 1;
  }
  EXPECT_GT(disjoint, 60u);
  EXPECT_GT(intersecting, 60u);
}

}  // namespace
}  // namespace maton::analysis::symbolic

// Differential tests for delta maintenance: classifiers patched in place
// by apply_remove / apply_modify must answer exactly like a fresh
// instantiate of the same table, the match index must keep every rule's
// current position across erases, rule counters must carry across
// batched removal runs exactly like the one-update-at-a-time loop, and a
// RemoveService on a large universal table must patch without rebuilding
// anything.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "controlplane/compiler.hpp"
#include "dataplane/classifier.hpp"
#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/traffic.hpp"

namespace maton::dp {
namespace {

constexpr FieldId kFields[] = {FieldId::kIpSrc, FieldId::kIpDst,
                               FieldId::kTcpDst};

[[nodiscard]] std::uint64_t prefix_mask(FieldId f, unsigned plen) {
  const std::uint64_t full = field_full_mask(f);
  if (plen == 0) return 0;
  return (full << (field_width(f) - plen)) & full;
}

enum class Template { kExact, kLpm, kTss, kLinear };

struct Case {
  const char* name;
  Template tmpl;
  /// Rules at the start; the trace keeps the table within
  /// (rules / 2, max_rules].
  std::size_t rules;
  std::size_t max_rules;
};

[[nodiscard]] std::unique_ptr<Classifier> instantiate(
    Template tmpl, const TableSpec& table) {
  switch (tmpl) {
    case Template::kExact:
      return make_exact_match(table);
    case Template::kLpm:
      return make_lpm(table);
    case Template::kTss:
      return make_tss(table);
    case Template::kLinear:
      return make_linear(table);
  }
  return make_linear(table);
}

/// A random rule the template accepts. Values come from a small domain
/// and masks from a few prefix lengths, so rules overlap and groups hold
/// many entries.
[[nodiscard]] Rule random_rule(Template tmpl, std::uint32_t priority,
                               Rng& rng) {
  Rule rule;
  rule.priority = priority;
  for (const FieldId f : kFields) {
    FieldMatch m{f, rng.uniform(0, 15), field_full_mask(f)};
    const bool prefix_field = f == FieldId::kIpSrc;
    if ((tmpl == Template::kLpm && prefix_field) ||
        ((tmpl == Template::kTss || tmpl == Template::kLinear) &&
         f != FieldId::kTcpDst)) {
      // LPM tables must keep one non-exact field: no /32 there.
      static constexpr unsigned kLens[] = {0, 8, 16, 24, 32};
      m.mask = prefix_mask(f, kLens[rng.index(tmpl == Template::kLpm ? 4 : 5)]);
      m.value = (rng.uniform(0, 3) << 24 | rng.uniform(0, 15)) & m.mask;
    }
    if ((tmpl == Template::kTss || tmpl == Template::kLinear) &&
        f == FieldId::kTcpDst && rng.chance(0.3)) {
      continue;  // wildcard: no match on this field
    }
    rule.matches.push_back(m);
  }
  rule.actions.push_back(
      {Action::Kind::kOutput, FieldId::kMeta0, rng.uniform(1, 99)});
  return rule;
}

/// A priority from a small range, so rules tie often: first-match
/// templates break ties by position, TSS by subtable order, and a patched
/// classifier must break them as a fresh build does.
[[nodiscard]] std::uint32_t random_priority(Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform(0, 7));
}

/// Keys that hit rules (each derived from a random rule, with random
/// bits where its masks are clear) plus random and out-of-domain keys.
[[nodiscard]] std::vector<FlowKey> probe_keys(const TableSpec& table,
                                              Rng& rng) {
  std::vector<FlowKey> keys;
  for (std::size_t i = 0; i < 96 && !table.rules.empty(); ++i) {
    const RuleView rule = table.rules[rng.index(table.rules.size())];
    FlowKey key;
    for (const FieldId f : kFields) key.set(f, rng.uniform(0, 15));
    for (const FieldMatch m : rule.matches) {
      key.set(m.field,
              m.value | (rng.uniform(0, field_full_mask(m.field)) & ~m.mask));
    }
    keys.push_back(key);
  }
  for (std::size_t i = 0; i < 64; ++i) {
    FlowKey key;
    const bool miss = rng.chance(0.3);
    for (const FieldId f : kFields) {
      key.set(f, miss ? rng.uniform(1 << 20, 1 << 24)
                      : rng.uniform(0, 3) << 24 | rng.uniform(0, 15));
    }
    keys.push_back(key);
  }
  return keys;
}

void expect_same_answers(const Classifier& patched, const Classifier& fresh,
                         const std::vector<FlowKey>& keys) {
  std::vector<std::size_t> got(keys.size());
  std::vector<std::size_t> want(keys.size());
  patched.lookup_batch(keys, got);
  fresh.lookup_batch(keys, want);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto scalar = patched.lookup(keys[i]);
    const auto reference = fresh.lookup(keys[i]);
    ASSERT_EQ(scalar, reference) << patched.name() << " key " << i;
    ASSERT_EQ(got[i], want[i]) << patched.name() << " batch key " << i;
    ASSERT_EQ(got[i], scalar.value_or(kNoRule)) << patched.name();
  }
}

/// find_by_match must return each rule's current position — the first
/// rule with that match vector, when vectors repeat.
void expect_index_current(const FlatRules& rules) {
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const MatchList target = rules[i].matches;
    std::size_t first = 0;
    while (!(rules[first].matches == target)) ++first;
    ASSERT_EQ(rules.find_by_match(target), first) << "rule " << i;
  }
}

class DeltaClassifier : public ::testing::TestWithParam<Case> {};

TEST_P(DeltaClassifier, PatchedClassifierMatchesFreshInstantiate) {
  const Case c = GetParam();
  Rng rng(0xde17a + static_cast<std::uint64_t>(c.tmpl) * 31 + c.rules);
  Program program;
  TableSpec spec;
  spec.name = c.name;
  spec.fields.assign(std::begin(kFields), std::end(kFields));
  for (std::size_t r = 0; r < c.rules; ++r) {
    spec.rules.push_back(random_rule(c.tmpl, random_priority(rng), rng));
  }
  spec.rules.stable_sort_by_priority();
  program.tables.push_back(std::move(spec));
  const TableSpec& table = program.tables[0];
  table.rules.build_match_index();
  std::unique_ptr<Classifier> classifier = instantiate(c.tmpl, table);

  std::size_t patched_removes = 0;
  for (int step = 0; step < 240; ++step) {
    RuleUpdate update;
    const std::size_t n = table.rules.size();
    const std::uint64_t roll = rng.uniform(0, 9);
    if (n > c.rules / 2 && (roll < 4 || n >= c.max_rules)) {
      update.kind = RuleUpdate::Kind::kRemove;
      update.target = table.rules[rng.index(n)].matches;
    } else if (roll < 7) {
      const RuleView old = table.rules[rng.index(n)];
      update.kind = RuleUpdate::Kind::kModify;
      update.target = old.matches;
      update.rule = random_rule(c.tmpl, old.priority, rng);
    } else {
      update.kind = RuleUpdate::Kind::kInsert;
      update.rule = random_rule(c.tmpl, random_priority(rng), rng);
    }
    ApplyOutcome outcome;
    ASSERT_TRUE(apply_update_to_program(program, update, &outcome).is_ok());
    bool patched = false;
    if (outcome.kind == ApplyOutcome::Kind::kRemoved) {
      patched = classifier->apply_remove(table, outcome.index, update.target);
      patched_removes += patched ? 1 : 0;
    } else if (outcome.kind == ApplyOutcome::Kind::kModifiedInPlace) {
      patched = classifier->apply_modify(table, outcome.index, update.target);
    }
    if (!patched) classifier = instantiate(c.tmpl, table);

    ASSERT_NO_FATAL_FAILURE(expect_same_answers(
        *classifier, *instantiate(c.tmpl, table), probe_keys(table, rng)))
        << "step " << step;
    ASSERT_NO_FATAL_FAILURE(expect_index_current(table.rules))
        << "step " << step;
  }
  // The masked-group templates patch removals; exact and LPM decline.
  if (c.tmpl == Template::kTss || c.tmpl == Template::kLinear) {
    EXPECT_GT(patched_removes, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Templates, DeltaClassifier,
    ::testing::Values(Case{"exact", Template::kExact, 48, 64},
                      Case{"lpm", Template::kLpm, 48, 64},
                      Case{"tss", Template::kTss, 96, 128},
                      // At most 8 rules: the flat rules-outer scan.
                      Case{"linear_scan", Template::kLinear, 8, 8},
                      // Above the scan threshold: the masked-group probe.
                      Case{"linear_groups", Template::kLinear, 96, 128}),
    [](const auto& info) { return std::string(info.param.name); });

TEST(DeltaClassifier, RemovingAGroupWinnerOverADroppedDuplicateRebuilds) {
  // Two rules with one masked value vector share a group entry: the
  // later one was dropped at build. Removing the winner must surface it,
  // which only a rebuild can do, so both templates decline.
  for (const Template tmpl : {Template::kTss, Template::kLinear}) {
    Program program;
    TableSpec spec;
    spec.name = "dup";
    spec.fields.assign(std::begin(kFields), std::end(kFields));
    Rule winner;
    winner.priority = 9;
    winner.matches = {{FieldId::kIpSrc, 0x0a000000, prefix_mask(FieldId::kIpSrc, 8)},
                      {FieldId::kIpDst, 7, field_full_mask(FieldId::kIpDst)}};
    winner.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 1}};
    Rule shadowed = winner;
    shadowed.priority = 3;
    shadowed.actions[0].value = 2;
    // Same masked values, different match vector (a redundant match on
    // the same field), so the switch can still address each rule.
    shadowed.matches.push_back(
        {FieldId::kIpDst, 7, field_full_mask(FieldId::kIpDst)});
    spec.rules = {winner, shadowed};
    for (std::uint64_t v = 0; v < 12; ++v) {
      Rule filler = winner;
      filler.priority = 5;
      filler.matches[1].value = 100 + v;
      spec.rules.push_back(filler);
    }
    spec.rules.stable_sort_by_priority();
    program.tables.push_back(std::move(spec));
    const TableSpec& table = program.tables[0];
    auto classifier = instantiate(tmpl, table);

    RuleUpdate remove;
    remove.kind = RuleUpdate::Kind::kRemove;
    remove.target = winner.matches;
    ApplyOutcome outcome;
    ASSERT_TRUE(apply_update_to_program(program, remove, &outcome).is_ok());
    EXPECT_FALSE(
        classifier->apply_remove(table, outcome.index, remove.target));
    classifier = instantiate(tmpl, table);
    FlowKey key;
    key.set(FieldId::kIpSrc, 0x0a010203);
    key.set(FieldId::kIpDst, 7);
    const auto hit = classifier->lookup(key);
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(table.rules[*hit].actions[0].value, 2u);
  }
}

// --- switch models --------------------------------------------------

[[nodiscard]] std::unique_ptr<SwitchModel> make_model(std::string_view which) {
  return which == "eswitch" ? make_eswitch_model() : make_lagopus_model();
}

/// Per-rule packet counts kept by (table, match vector), independent of
/// RuleCounters: the scalar reference interpreter bumps the rules it
/// matched, and updates carry counts with OpenFlow semantics.
class ReferenceCounts {
 public:
  explicit ReferenceCounts(Program program) : program_(std::move(program)) {}

  void process(const FlowKey& key) {
    (void)execute_reference(program_, key, &matched_);
    for (const MatchedRule& m : matched_.span()) {
      ++counts_[encode(m.table,
                       program_.tables[m.table].rules[m.rule].matches)];
    }
  }

  void apply(const RuleUpdate& update) {
    ASSERT_TRUE(apply_update_to_program(program_, update).is_ok());
    const std::vector<std::uint64_t> target =
        encode(update.table, update.target);
    if (update.kind == RuleUpdate::Kind::kInsert) {
      counts_[encode(update.table, update.rule.matches)] = 0;
    } else if (update.kind == RuleUpdate::Kind::kRemove) {
      counts_.erase(target);
    } else {  // a modified rule inherits its count
      const std::uint64_t count = counts_[target];
      counts_.erase(target);
      counts_[encode(update.table, update.rule.matches)] = count;
    }
  }

  [[nodiscard]] std::uint64_t count(std::size_t table,
                                    const MatchRange& matches) const {
    const auto it = counts_.find(encode(table, matches));
    return it == counts_.end() ? 0 : it->second;
  }
  [[nodiscard]] const Program& program() const noexcept { return program_; }

 private:
  template <typename Matches>
  [[nodiscard]] static std::vector<std::uint64_t> encode(std::size_t table,
                                                         const Matches& ms) {
    std::vector<std::uint64_t> out{table};
    for (const FieldMatch m : ms) {
      out.insert(out.end(), {field_index(m.field), m.value, m.mask});
    }
    return out;
  }

  Program program_;
  MatchedBuf matched_;
  std::map<std::vector<std::uint64_t>, std::uint64_t> counts_;
};

class DeltaCounters : public ::testing::TestWithParam<const char*> {};

TEST_P(DeltaCounters, RemovalRunsCarryCountersLikeTheScalarReference) {
  const auto gwlb =
      workloads::make_gwlb({.num_services = 48, .num_backends = 4, .seed = 9});
  const Program program =
      compile(core::Pipeline::single(gwlb.universal)).value();
  auto sw = make_model(GetParam());
  ASSERT_TRUE(sw->load(program).is_ok());
  ASSERT_TRUE(sw->configure_queues(4));
  ReferenceCounts ref(program);
  const auto keys = workloads::make_gwlb_keys(
      gwlb, {.num_packets = 512, .hit_fraction = 0.9, .seed = 4});

  Rng rng(31);
  std::vector<ExecResult> results(keys.size());
  for (int round = 0; round < 24; ++round) {
    // Traffic on all four queues; the reference runs the scalar loop.
    const std::size_t quarter = keys.size() / 4;
    for (std::size_t q = 0; q < 4; ++q) {
      sw->process_batch_queue(
          q, std::span(keys).subspan(q * quarter, quarter),
          std::span(results).subspan(q * quarter, quarter));
    }
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = execute_reference(ref.program(), keys[i]);
      ASSERT_EQ(results[i].hit, want.hit) << "round " << round;
      ASSERT_EQ(results[i].out_port, want.out_port) << "round " << round;
      ref.process(keys[i]);
    }

    // A run of distinct removals (every sixth one long), a same-priority
    // modify, and every few rounds an insert.
    const FlatRules& rules = sw->program().tables[0].rules;
    std::vector<RuleUpdate> updates;
    std::set<std::size_t> picked;
    const std::size_t removals = round % 6 == 5 ? 20 : 1 + rng.index(6);
    while (picked.size() < removals && picked.size() + 8 < rules.size()) {
      picked.insert(rng.index(rules.size()));
    }
    for (const std::size_t pos : picked) {
      RuleUpdate u;
      u.kind = RuleUpdate::Kind::kRemove;
      u.target = rules[pos].matches;
      updates.push_back(std::move(u));
    }
    std::size_t keep = rng.index(rules.size());
    while (picked.contains(keep)) keep = (keep + 1) % rules.size();
    RuleUpdate modify;
    modify.kind = RuleUpdate::Kind::kModify;
    modify.target = rules[keep].matches;
    modify.rule = rules[keep];
    modify.rule.actions[0].value = 500 + static_cast<std::uint64_t>(round);
    updates.push_back(std::move(modify));
    if (round % 4 == 3) {
      RuleUpdate insert;
      insert.kind = RuleUpdate::Kind::kInsert;
      insert.rule = rules[keep];
      insert.rule.matches[1].value = 0xc6130000 + round;  // fresh VIP
      updates.push_back(std::move(insert));
    }
    ASSERT_TRUE(sw->apply_updates(updates).is_ok()) << "round " << round;
    for (const RuleUpdate& u : updates) {
      ASSERT_NO_FATAL_FAILURE(ref.apply(u)) << "round " << round;
    }

    ASSERT_TRUE(sw->program() == ref.program()) << "round " << round;
    for (const RuleView rule : ref.program().tables[0].rules) {
      const auto got = sw->read_rule_counter(0, rule.matches);
      ASSERT_TRUE(got.is_ok());
      ASSERT_EQ(got.value(), ref.count(0, rule.matches)) << "round " << round;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Models, DeltaCounters,
                         ::testing::Values("eswitch", "lagopus"));

TEST(DeltaMaintenanceMetrics, RemoveServicePatchesWithoutRebuilding) {
  // 20k services × 8 backends: one 160k-rule universal table, which
  // ESwitch serves with the linear template.
  cp::GwlbBinding binding(
      workloads::make_gwlb(
          {.num_services = 20000, .num_backends = 8, .seed = 5}),
      cp::Representation::kUniversal);
  auto sw = make_eswitch_model();
  ASSERT_TRUE(sw->load(binding.program()).is_ok());

  auto& registry = obs::MetricRegistry::global();
  obs::Counter& patches = registry.counter(
      "maton_dp_classifier_patches_total",
      {{"model", "eswitch"}, {"op", "remove"}, {"template", "linear"}});
  obs::Counter& rebuilds = registry.counter(
      "maton_dp_classifier_rebuilds_total",
      {{"model", "eswitch"}, {"template", "linear"}});
  obs::Counter& index_builds =
      registry.counter("maton_dp_match_index_builds_total");

  const auto removal = binding.compile_intent(cp::RemoveService{.service = 777});
  ASSERT_TRUE(removal.is_ok());
  ASSERT_EQ(removal.value().size(), 8u);
  const std::uint64_t patches0 = patches.total();
  const std::uint64_t rebuilds0 = rebuilds.total();
  const std::uint64_t index_builds0 = index_builds.total();
  ASSERT_TRUE(sw->apply_updates(removal.value()).is_ok());
  // The next intent finds its targets without rebuilding the index.
  const auto next = binding.compile_intent(
      cp::MoveServicePort{.service = 778, .new_port = 4242});
  ASSERT_TRUE(next.is_ok());
  ASSERT_TRUE(sw->apply_updates(next.value()).is_ok());
  ASSERT_TRUE(sw->program() == binding.program());
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(patches.total() - patches0, 8u);
    EXPECT_EQ(rebuilds.total() - rebuilds0, 0u);
    EXPECT_EQ(index_builds.total() - index_builds0, 0u);
  }

  const auto keys = workloads::make_gwlb_keys(
      binding.gwlb(), {.num_packets = 2048, .hit_fraction = 0.9, .seed = 2});
  std::vector<ExecResult> results(keys.size());
  sw->process_batch(keys, results);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const ExecResult want = execute_reference(binding.program(), keys[i]);
    ASSERT_EQ(results[i].hit, want.hit) << "key " << i;
    ASSERT_EQ(results[i].out_port, want.out_port) << "key " << i;
  }
}

TEST(DeltaMaintenanceMetrics, GotoChangeBackendPatchesTheLpmTable) {
  // 100 services × 8 backends, goto: ESwitch serves each per-service LB
  // table with the LPM template. A backend swap rewrites the output of
  // one LB rule and keeps its match vector, so the template keeps its
  // trie and nothing is rebuilt.
  cp::GwlbBinding binding(
      workloads::make_gwlb(
          {.num_services = 100, .num_backends = 8, .seed = 12}),
      cp::Representation::kGoto);
  auto sw = make_eswitch_model();
  ASSERT_TRUE(sw->load(binding.program()).is_ok());
  ReferenceCounts ref(binding.program());

  auto& registry = obs::MetricRegistry::global();
  obs::Counter& rebuilds = registry.counter(
      "maton_dp_classifier_rebuilds_total",
      {{"model", "eswitch"}, {"template", "lpm"}});
  obs::Counter& patches = registry.counter(
      "maton_dp_classifier_patches_total",
      {{"model", "eswitch"}, {"op", "modify"}, {"template", "lpm"}});
  const auto keys = workloads::make_gwlb_keys(
      binding.gwlb(), {.num_packets = 1024, .hit_fraction = 0.9, .seed = 3});

  Rng rng(41);
  std::vector<ExecResult> results(keys.size());
  for (int round = 0; round < 16; ++round) {
    sw->process_batch(keys, results);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = execute_reference(ref.program(), keys[i]);
      ASSERT_EQ(results[i].hit, want.hit) << "round " << round;
      ASSERT_EQ(results[i].out_port, want.out_port) << "round " << round;
      ref.process(keys[i]);
    }

    const cp::ChangeBackend intent{rng.index(100), rng.index(8),
                                   3000 + static_cast<std::uint64_t>(round)};
    const auto updates = binding.compile_intent(intent);
    ASSERT_TRUE(updates.is_ok());
    ASSERT_EQ(updates.value().size(), 1u);
    ASSERT_EQ(updates.value()[0].kind, RuleUpdate::Kind::kModify);
    const std::uint64_t rebuilds0 = rebuilds.total();
    const std::uint64_t patches0 = patches.total();
    ASSERT_TRUE(sw->apply_updates(updates.value()).is_ok());
    if constexpr (obs::kEnabled) {
      EXPECT_EQ(rebuilds.total() - rebuilds0, 0u) << "round " << round;
      EXPECT_EQ(patches.total() - patches0, 1u) << "round " << round;
    }
    ASSERT_NO_FATAL_FAILURE(ref.apply(updates.value()[0]));
  }

  ASSERT_TRUE(sw->program() == binding.program());
  const Program& program = sw->program();
  for (std::size_t t = 0; t < program.tables.size(); ++t) {
    for (const RuleView rule : program.tables[t].rules) {
      const auto got = sw->read_rule_counter(t, rule.matches);
      ASSERT_TRUE(got.is_ok());
      EXPECT_EQ(got.value(), ref.count(t, rule.matches)) << "table " << t;
    }
  }
}

}  // namespace
}  // namespace maton::dp

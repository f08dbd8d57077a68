// Differential tests for the batch execution path: for every classifier
// template and every switch model, lookup_batch / process_batch must be
// bit-identical to the scalar path — results, rule counters, and (for
// OVS) cache statistics — on randomized rule sets and probe keys,
// including miss-heavy batches.
#include <gtest/gtest.h>

#include <algorithm>
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

/// std::erase_if over a rule's inline match or action list.
template <typename List, typename Pred>
std::size_t erase_if(List& list, Pred pred) {
  const auto kept = std::remove_if(list.begin(), list.end(), pred);
  const auto erased = static_cast<std::size_t>(list.end() - kept);
  list.resize(list.size() - erased);
  return erased;
}

constexpr FieldId kFields[] = {FieldId::kIpSrc, FieldId::kIpDst,
                               FieldId::kTcpDst};

[[nodiscard]] std::uint64_t full_mask_of(FieldId f) {
  const unsigned w = field_width(f);
  return w >= 64 ? ~std::uint64_t{0} : ((std::uint64_t{1} << w) - 1);
}

[[nodiscard]] std::uint64_t prefix_mask_of(FieldId f, unsigned plen) {
  const unsigned w = field_width(f);
  if (plen == 0) return 0;
  return (full_mask_of(f) << (w - plen)) & full_mask_of(f);
}

enum class TableShape { kAllExact, kSinglePrefix, kTernary };

/// Random table of the given structural shape over kFields. Values are
/// drawn from a small domain so that probe keys hit often; priorities are
/// random so tie-breaking paths get exercised.
[[nodiscard]] TableSpec random_table(TableShape shape, std::size_t rules,
                                     Rng& rng) {
  TableSpec spec;
  spec.name = "t";
  spec.fields.assign(std::begin(kFields), std::end(kFields));
  for (std::size_t r = 0; r < rules; ++r) {
    Rule rule;
    rule.priority = static_cast<std::uint32_t>(rng.uniform(0, 7));
    for (const FieldId f : kFields) {
      FieldMatch m;
      m.field = f;
      m.value = rng.uniform(0, 15);
      m.mask = full_mask_of(f);
      switch (shape) {
        case TableShape::kAllExact:
          break;
        case TableShape::kSinglePrefix:
          if (f == FieldId::kIpSrc) {
            const unsigned plen =
                static_cast<unsigned>(rng.uniform(0, field_width(f)));
            m.mask = prefix_mask_of(f, plen);
            m.value = rng.uniform(0, 0xffffffffULL) & m.mask;
          }
          break;
        case TableShape::kTernary:
          // Arbitrary (non-prefix) masks on every field.
          m.mask = rng.uniform(0, full_mask_of(f));
          m.value = rng.uniform(0, full_mask_of(f)) & m.mask;
          break;
      }
      rule.matches.push_back(m);
    }
    rule.actions.push_back({Action::Kind::kOutput, FieldId::kMeta0,
                            rng.uniform(1, 8)});
    spec.rules.push_back(rule);
  }
  spec.rules.stable_sort_by_priority();
  return spec;
}

/// Probe keys: a mix of values inside the rules' small domain (frequent
/// hits) and far outside it (guaranteed misses).
[[nodiscard]] std::vector<FlowKey> random_keys(std::size_t count,
                                               Rng& rng) {
  std::vector<FlowKey> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowKey key;
    const bool miss_heavy = rng.chance(0.4);
    for (const FieldId f : kFields) {
      key.set(f, miss_heavy ? rng.uniform(1 << 20, 1 << 24)
                            : rng.uniform(0, 15));
    }
    keys.push_back(key);
  }
  return keys;
}

void expect_batch_matches_scalar(const Classifier& classifier,
                                 const std::vector<FlowKey>& keys) {
  std::vector<std::size_t> batched(keys.size(), 0);
  classifier.lookup_batch(keys, batched);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto want = classifier.lookup(keys[i]);
    const std::size_t scalar = want.has_value() ? *want : kNoRule;
    ASSERT_EQ(scalar, batched[i])
        << classifier.name() << " diverges at key " << i;
  }
}

TEST(BatchLookup, ExactMatchesScalarOnRandomTables) {
  Rng rng(101);
  for (int round = 0; round < 20; ++round) {
    const auto table =
        random_table(TableShape::kAllExact, 1 + rng.index(64), rng);
    ASSERT_EQ(table.profile(), MatchProfile::kAllExact);
    expect_batch_matches_scalar(*make_exact_match(table),
                                random_keys(200, rng));
  }
}

TEST(BatchLookup, LpmMatchesScalarOnRandomTables) {
  Rng rng(202);
  for (int round = 0; round < 20; ++round) {
    const auto table =
        random_table(TableShape::kSinglePrefix, 1 + rng.index(64), rng);
    if (table.profile() != MatchProfile::kSinglePrefix) continue;
    expect_batch_matches_scalar(*make_lpm(table), random_keys(200, rng));
  }
}

TEST(BatchLookup, TssMatchesScalarOnRandomTables) {
  Rng rng(303);
  for (int round = 0; round < 20; ++round) {
    const auto table =
        random_table(TableShape::kTernary, 1 + rng.index(64), rng);
    expect_batch_matches_scalar(*make_tss(table), random_keys(200, rng));
  }
}

TEST(BatchLookup, LinearMatchesScalarOnRandomTables) {
  Rng rng(404);
  for (int round = 0; round < 20; ++round) {
    const auto table =
        random_table(TableShape::kTernary, 1 + rng.index(64), rng);
    expect_batch_matches_scalar(*make_linear(table),
                                random_keys(200, rng));
  }
}

TEST(BatchLookup, EmptyTableAndEmptyBatch) {
  Rng rng(505);
  const auto table = random_table(TableShape::kTernary, 4, rng);
  const auto c = make_tss(table);
  c->lookup_batch({}, {});  // no keys: must be a no-op
  TableSpec empty = table;
  empty.rules.clear();
  expect_batch_matches_scalar(*make_tss(empty), random_keys(70, rng));
  expect_batch_matches_scalar(*make_linear(empty), random_keys(70, rng));
}

// --- switch models ---------------------------------------------------

struct Fixture {
  workloads::Gwlb gwlb;
  Program universal;
  Program goto_program;
  Program metadata_program;

  Fixture() {
    gwlb = workloads::make_gwlb(
        {.num_services = 8, .num_backends = 4, .seed = 3});
    universal = compile(core::Pipeline::single(gwlb.universal)).value();
    goto_program =
        compile(cp::pipeline_for(gwlb, cp::Representation::kGoto)).value();
    metadata_program =
        compile(cp::pipeline_for(gwlb, cp::Representation::kMetadata)).value();
  }
};

[[nodiscard]] std::unique_ptr<SwitchModel> make_model(
    std::string_view which) {
  if (which == "eswitch") return make_eswitch_model();
  if (which == "lagopus") return make_lagopus_model();
  if (which == "ovs") return make_ovs_model();
  return std::make_unique<HwTcamModel>();
}

void expect_counters_equal(const Program& program, const SwitchModel& a,
                           const SwitchModel& b) {
  for (std::size_t t = 0; t < program.tables.size(); ++t) {
    for (const Rule& rule : program.tables[t].rules) {
      const auto ca = a.read_rule_counter(t, rule.matches);
      const auto cb = b.read_rule_counter(t, rule.matches);
      ASSERT_TRUE(ca.is_ok());
      ASSERT_TRUE(cb.is_ok());
      ASSERT_EQ(ca.value(), cb.value());
    }
  }
}

class BatchProcess : public ::testing::TestWithParam<const char*> {};

TEST_P(BatchProcess, MatchesScalarOnAllRepresentations) {
  const Fixture fx;
  Rng rng(77);
  for (const Program* program :
       {&fx.universal, &fx.goto_program, &fx.metadata_program}) {
    // Miss-heavy traffic: 60% of keys target live services.
    const auto keys = workloads::make_gwlb_keys(
        fx.gwlb, {.num_packets = 700, .hit_fraction = 0.6,
                  .seed = rng.uniform(0, 1 << 20)});

    auto scalar_sw = make_model(GetParam());
    auto batch_sw = make_model(GetParam());
    ASSERT_TRUE(scalar_sw->load(*program).is_ok());
    ASSERT_TRUE(batch_sw->load(*program).is_ok());

    std::vector<ExecResult> batched(keys.size());
    batch_sw->process_batch(keys, batched);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = scalar_sw->process(keys[i]);
      ASSERT_EQ(want.hit, batched[i].hit) << "key " << i;
      ASSERT_EQ(want.out_port, batched[i].out_port) << "key " << i;
      ASSERT_EQ(want.tables_visited, batched[i].tables_visited)
          << "key " << i;
    }
    expect_counters_equal(*program, *scalar_sw, *batch_sw);
  }
}

TEST_P(BatchProcess, RepeatedBatchesMatchRepeatedScalar) {
  // Several passes over the same traffic: exercises the warm OVS cache
  // (all-hit batches) and counter accumulation across calls.
  const Fixture fx;
  const auto keys = workloads::make_gwlb_keys(
      fx.gwlb, {.num_packets = 256, .hit_fraction = 0.9, .seed = 5});
  auto scalar_sw = make_model(GetParam());
  auto batch_sw = make_model(GetParam());
  ASSERT_TRUE(scalar_sw->load(fx.goto_program).is_ok());
  ASSERT_TRUE(batch_sw->load(fx.goto_program).is_ok());

  std::vector<ExecResult> batched(keys.size());
  for (int round = 0; round < 3; ++round) {
    batch_sw->process_batch(keys, batched);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = scalar_sw->process(keys[i]);
      ASSERT_EQ(want.hit, batched[i].hit);
      ASSERT_EQ(want.out_port, batched[i].out_port);
      ASSERT_EQ(want.tables_visited, batched[i].tables_visited);
    }
  }
  expect_counters_equal(fx.goto_program, *scalar_sw, *batch_sw);
}

INSTANTIATE_TEST_SUITE_P(Models, BatchProcess,
                         ::testing::Values("eswitch", "lagopus", "ovs",
                                           "hw"));

TEST_P(BatchProcess, MatchesScalarWhilePatchesAddAndDropTheOnlySetField) {
  // The goto program has no set-field action, so the table-walk batch
  // walker reads keys in place. A patched modify of an entry rule adds
  // one (rewriting ip_src, which the service's LB table matches), so the
  // walker must copy keys into its states; the next patch drops it
  // again, and the walker may go back to reading in place. Both switches
  // see every step; results and counters must agree after each.
  const Fixture fx;
  const auto sets_field = [](const Program& program) {
    for (const TableSpec& table : program.tables) {
      for (const RuleView rule : table.rules) {
        for (const Action action : rule.actions) {
          if (action.kind == Action::Kind::kSetField) return true;
        }
      }
    }
    return false;
  };
  ASSERT_FALSE(sets_field(fx.goto_program));
  auto scalar_sw = make_model(GetParam());
  auto batch_sw = make_model(GetParam());
  ASSERT_TRUE(scalar_sw->load(fx.goto_program).is_ok());
  ASSERT_TRUE(batch_sw->load(fx.goto_program).is_ok());
  const auto rebuilds = [] {
    double total = 0.0;
    for (const auto& m : obs::MetricRegistry::global().scrape().metrics) {
      if (m.name == "maton_dp_classifier_rebuilds_total") total += m.value;
    }
    return total;
  };
  const double rebuilds0 = rebuilds();

  auto keys = workloads::make_gwlb_keys(
      fx.gwlb, {.num_packets = 256, .hit_fraction = 0.8, .seed = 13});
  const FlatRules& entry = fx.goto_program.tables[fx.goto_program.entry].rules;
  std::vector<ExecResult> batched(keys.size());
  const auto step = [&](const RuleUpdate& update) {
    ASSERT_TRUE(scalar_sw->apply_update(update).is_ok());
    ASSERT_TRUE(batch_sw->apply_update(update).is_ok());
    batch_sw->process_batch(keys, batched);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = scalar_sw->process(keys[i]);
      ASSERT_EQ(want.hit, batched[i].hit) << "key " << i;
      ASSERT_EQ(want.out_port, batched[i].out_port) << "key " << i;
      ASSERT_EQ(want.tables_visited, batched[i].tables_visited)
          << "key " << i;
    }
    expect_counters_equal(scalar_sw->program(), *scalar_sw, *batch_sw);
  };
  bool diverted = false;
  for (std::size_t round = 0; round < 2 * entry.size(); ++round) {
    const std::size_t r = round % entry.size();
    // Every other key of the batch hits the modified rule.
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      for (const FieldMatch m : entry[r].matches) keys[i].set(m.field, m.value);
    }
    RuleUpdate update{.kind = RuleUpdate::Kind::kModify,
                      .table = fx.goto_program.entry,
                      .target = entry[r].matches,
                      .rule = entry[r]};
    update.rule.actions.push_back(
        {Action::Kind::kSetField, FieldId::kIpSrc, 0x0a000000 + round});
    ASSERT_NO_FATAL_FAILURE(step(update)) << "round " << round << " (add)";
    ASSERT_TRUE(sets_field(batch_sw->program()));
    std::vector<ExecResult> plain(keys.size());
    for (std::size_t i = 0; i < keys.size(); ++i) {
      plain[i] = execute_reference(fx.goto_program, keys[i]);
      diverted = diverted || plain[i].out_port != batched[i].out_port;
    }
    update.rule = entry[r];
    ASSERT_NO_FATAL_FAILURE(step(update)) << "round " << round << " (drop)";
    ASSERT_FALSE(sets_field(batch_sw->program()));
    ASSERT_TRUE(batch_sw->program() == fx.goto_program);
  }
  // The rewrite changed some packet's backend, and every step patched.
  EXPECT_TRUE(diverted);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(rebuilds(), rebuilds0);
  }

  // Random churn on the entry table: modifies that add or drop a
  // set-field action, removals, and inserts of lower-priority rules
  // without a port match. Those move ESwitch to the linear template and
  // give TSS priorities to order, so removals patch as well as rebuild.
  const std::size_t table = fx.goto_program.entry;
  Rng churn(5);
  for (int round = 0; round < 80; ++round) {
    const FlatRules& rules = batch_sw->program().tables[table].rules;
    const Rule rule = rules[churn.index(rules.size())];
    for (std::size_t i = 0; i < keys.size(); i += 2) {
      for (const FieldMatch m : rule.matches) keys[i].set(m.field, m.value);
    }
    RuleUpdate update{.kind = RuleUpdate::Kind::kModify,
                      .table = table,
                      .target = rule.matches,
                      .rule = rule};
    const std::size_t op = churn.index(4);
    if (op == 0 && rules.size() > 4) {
      update.kind = RuleUpdate::Kind::kRemove;
    } else if (op == 1) {
      update.kind = RuleUpdate::Kind::kInsert;
      update.rule.priority = rule.priority - 1;
      erase_if(update.rule.matches, [](const FieldMatch& m) {
        return m.field == FieldId::kTcpDst;
      });
      for (FieldMatch& m : update.rule.matches) {
        if (m.field == FieldId::kIpDst) m.value = 0xc6130000 + round;
      }
    } else if (erase_if(update.rule.actions, [](const Action& a) {
                 return a.kind == Action::Kind::kSetField;
               }) == 0) {
      update.rule.actions.push_back(
          {Action::Kind::kSetField, FieldId::kIpSrc, churn.uniform(0, 255)});
    }
    ASSERT_NO_FATAL_FAILURE(step(update)) << "churn round " << round;
  }
}

TEST(BatchProcessOvs, CacheStatsMatchScalar) {
  const Fixture fx;
  const auto keys = workloads::make_gwlb_keys(
      fx.gwlb, {.num_packets = 300, .hit_fraction = 0.7, .seed = 11});

  auto scalar_sw = make_ovs_model();
  auto batch_sw = make_ovs_model();
  auto* scalar_ovs = dynamic_cast<OvsModelInterface*>(scalar_sw.get());
  auto* batch_ovs = dynamic_cast<OvsModelInterface*>(batch_sw.get());
  ASSERT_TRUE(scalar_sw->load(fx.goto_program).is_ok());
  ASSERT_TRUE(batch_sw->load(fx.goto_program).is_ok());

  std::vector<ExecResult> batched(keys.size());
  for (int round = 0; round < 2; ++round) {
    for (const FlowKey& key : keys) (void)scalar_sw->process(key);
    batch_sw->process_batch(keys, batched);
    const OvsStats a = scalar_ovs->stats();
    const OvsStats b = batch_ovs->stats();
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.cache_entries, b.cache_entries);
    EXPECT_EQ(a.cache_flushes, b.cache_flushes);
  }
}

TEST(BatchProcessOvs, ColdStartDuplicateFlowChunkMatchesScalar) {
  // A chunk full of repeats on a cold cache: the first occurrence of
  // each flow misses and its slow-path result is inserted mid-chunk, so
  // every repeat later in the same chunk must be served by re-probing
  // against the freshly inserted entry — counted as a cache hit, exactly
  // like the scalar loop. A batch path that re-ran the full classifier
  // for the tail (or skipped the re-probe) would diverge in the
  // hit/miss split below.
  const Fixture fx;
  for (const Program* program :
       {&fx.universal, &fx.goto_program, &fx.metadata_program}) {
    const auto distinct = workloads::make_gwlb_keys(
        fx.gwlb, {.num_packets = 6, .hit_fraction = 0.7, .seed = 29});
    std::vector<FlowKey> keys;
    for (std::size_t i = 0; i < 64; ++i) {
      keys.push_back(distinct[i % distinct.size()]);
    }

    auto scalar_sw = make_ovs_model();
    auto batch_sw = make_ovs_model();
    auto* scalar_ovs = dynamic_cast<OvsModelInterface*>(scalar_sw.get());
    auto* batch_ovs = dynamic_cast<OvsModelInterface*>(batch_sw.get());
    ASSERT_TRUE(scalar_sw->load(*program).is_ok());
    ASSERT_TRUE(batch_sw->load(*program).is_ok());

    std::vector<ExecResult> batched(keys.size());
    batch_sw->process_batch(keys, batched);
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const ExecResult want = scalar_sw->process(keys[i]);
      ASSERT_EQ(want.hit, batched[i].hit) << "key " << i;
      ASSERT_EQ(want.out_port, batched[i].out_port) << "key " << i;
    }
    const OvsStats a = scalar_ovs->stats();
    const OvsStats b = batch_ovs->stats();
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.cache_entries, b.cache_entries);
    // Cold cache: a program-hitting flow misses exactly once (repeats
    // are served by the entry inserted mid-chunk); a program-missing
    // flow never populates the cache, so every occurrence misses.
    std::size_t expected_misses = 0;
    for (std::size_t d = 0; d < distinct.size(); ++d) {
      const std::size_t occurrences =
          (keys.size() - d + distinct.size() - 1) / distinct.size();
      expected_misses += batched[d].hit ? 1 : occurrences;
    }
    EXPECT_EQ(b.cache_misses, expected_misses);
    expect_counters_equal(*program, *scalar_sw, *batch_sw);
  }
}

}  // namespace
}  // namespace maton::dp

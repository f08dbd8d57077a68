// The table-walk switches' metric handles under churn: an applied batch
// resolves registry handles only for the tables it rebuilt (a patch
// resolves none), a rebuild that changes a table's classifier template
// moves the template-labelled counts to the new label, and a churned
// switch has registered exactly the metrics a fresh load of its final
// program registers.
#include <gtest/gtest.h>

#include <array>
#include <cstdlib>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "controlplane/churn.hpp"
#include "controlplane/compiler.hpp"
#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"

namespace maton::dp {
namespace {

/// Template-labelled handles a table's classifier uses: chunks, two
/// patch ops and rebuilds.
constexpr std::uint64_t kTemplateHandles = 4;

[[nodiscard]] std::unique_ptr<SwitchModel> make_model(std::string_view which) {
  return which == "eswitch" ? make_eswitch_model() : make_lagopus_model();
}

/// Rebuilds the model has counted, over every template (read by scrape,
/// which resolves no handle).
[[nodiscard]] double rebuilds_of(std::string_view model) {
  double total = 0.0;
  for (const obs::MetricSnapshot& m :
       obs::MetricRegistry::global().scrape().metrics) {
    if (m.name != "maton_dp_classifier_rebuilds_total") continue;
    for (const auto& [key, value] : m.labels) {
      if (key == "model" && value == model) total += m.value;
    }
  }
  return total;
}

class UpdateMetrics : public ::testing::TestWithParam<const char*> {};

TEST_P(UpdateMetrics, ABatchResolvesHandlesOnlyForTheTablesItRebuilt) {
  cp::GwlbBinding binding(
      workloads::make_gwlb(
          {.num_services = 100, .num_backends = 8, .seed = 12}),
      cp::Representation::kGoto);
  ASSERT_EQ(binding.program().tables.size(), 101u);
  auto sw = make_model(GetParam());
  ASSERT_TRUE(sw->load(binding.program()).is_ok());

  auto& registry = obs::MetricRegistry::global();
  // Applies `updates` and returns {registry lookups, tables rebuilt}.
  const auto apply = [&](std::span<const RuleUpdate> updates) {
    const double rebuilds0 = rebuilds_of(GetParam());
    const std::uint64_t lookups0 = registry.lookups();
    EXPECT_TRUE(sw->apply_updates(updates).is_ok());
    const std::uint64_t lookups = registry.lookups() - lookups0;
    return std::pair{lookups, static_cast<std::uint64_t>(
                                  rebuilds_of(GetParam()) - rebuilds0)};
  };

  Rng rng(21);
  std::size_t patch_only = 0;
  std::size_t rebuilding = 0;
  for (int i = 0; i < 100; ++i) {
    const auto updates = binding.compile_intent(cp::draw_mixed_intent(
        rng, binding.gwlb(), {.vip_collision_probability = 0.0}));
    ASSERT_TRUE(updates.is_ok()) << "intent " << i;
    const auto [lookups, rebuilt] = apply(updates.value());
    // At most the rebuilt tables' template handles (none when their
    // template was already cached); re-resolving the whole program
    // would cost 7 per table.
    EXPECT_LE(lookups, kTemplateHandles * rebuilt) << "intent " << i;
    if (rebuilt == 0) {
      ++patch_only;
    } else {
      ++rebuilding;
    }
  }
  ASSERT_TRUE(sw->program() == binding.program());
  if constexpr (obs::kEnabled) {
    EXPECT_GE(patch_only, 10u);
    // ESwitch serves the entry with the exact template, which re-keys a
    // port or VIP move in place, and each LB table with LPM, which
    // patches a backend swap's actions-only modify: no intent of this
    // mix rebuilds a table. (The insert below covers the rebuild path.)
    if (std::string_view(GetParam()) == "eswitch") {
      EXPECT_EQ(rebuilding, 0u);
    }
  }

  // An insert always rebuilds its table. One shaped like the table's
  // rules keeps its template, whose handles are cached: no lookup.
  const std::size_t lb = 1 + rng.index(100);
  RuleUpdate insert{.kind = RuleUpdate::Kind::kInsert, .table = lb};
  insert.rule = sw->program().tables[lb].rules[0];
  FieldMatch& first = insert.rule.matches[0];
  first.value ^= first.mask & (~first.mask + 1);  // a fresh match
  const auto [lookups, rebuilt] = apply({&insert, 1});
  ASSERT_EQ(sw->program().tables[lb].rules.size(),
            binding.program().tables[lb].rules.size() + 1);
  EXPECT_EQ(lookups, 0u);
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(rebuilt, 1u);
  }
}

INSTANTIATE_TEST_SUITE_P(Models, UpdateMetrics,
                         ::testing::Values("eswitch", "lagopus"));

[[nodiscard]] Rule exact_rule(std::uint64_t dst, std::uint64_t port) {
  Rule rule;
  rule.priority = 1;
  rule.matches = {{FieldId::kIpDst, dst, field_full_mask(FieldId::kIpDst)},
                  {FieldId::kTcpDst, 80, field_full_mask(FieldId::kTcpDst)}};
  rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, port}};
  return rule;
}

TEST(UpdateMetricsTemplates, ARebuildThatChangesTheTemplateMovesItsLabels) {
  // An all-exact table serves from ESwitch's exact template until a
  // wildcard insert makes it ternary: from that rebuild on its chunks,
  // patches and rebuilds count under template="linear".
  Program program;
  TableSpec table;
  table.name = "template_change";
  table.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  for (std::uint64_t i = 0; i < 16; ++i) {
    table.rules.push_back(exact_rule(0x0a000000 + i, 1 + i));
  }
  program.tables.push_back(std::move(table));
  auto sw = make_eswitch_model();
  ASSERT_TRUE(sw->load(program).is_ok());

  // (chunks, patched modifies, patched removals, rebuilds) of a template.
  using Counts = std::array<std::uint64_t, 4>;
  const auto totals = [](const char* tmpl) -> Counts {
    auto& registry = obs::MetricRegistry::global();
    const obs::Labels labels{{"model", "eswitch"}, {"template", tmpl}};
    const auto patches = [&](const char* op) {
      return registry
          .counter("maton_dp_classifier_patches_total",
                   {{"model", "eswitch"}, {"op", op}, {"template", tmpl}})
          .total();
    };
    return {registry.counter("maton_dp_classifier_chunks_total", labels).total(),
            patches("modify"), patches("remove"),
            registry.counter("maton_dp_classifier_rebuilds_total", labels)
                .total()};
  };
  const auto delta = [](Counts now, const Counts& then) {
    for (std::size_t i = 0; i < now.size(); ++i) now[i] -= then[i];
    return now;
  };
  const bool on = obs::kEnabled;

  std::vector<FlowKey> keys(8);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    keys[i].set(FieldId::kIpDst, 0x0a000000 + i);
    keys[i].set(FieldId::kTcpDst, 80);
  }
  std::vector<ExecResult> results(keys.size());

  // Exact template: a modify patches, traffic counts one chunk.
  Counts exact0 = totals("exact");
  Counts linear0 = totals("linear");
  RuleUpdate modify{.kind = RuleUpdate::Kind::kModify,
                    .table = 0,
                    .target = exact_rule(0x0a000003, 0).matches,
                    .rule = exact_rule(0x0a000003, 40)};
  ASSERT_TRUE(sw->apply_update(modify).is_ok());
  sw->process_batch(keys, results);
  EXPECT_EQ(results[3].out_port, 40u);
  EXPECT_EQ(delta(totals("exact"), exact0), (Counts{on, on, 0, 0}));
  EXPECT_EQ(delta(totals("linear"), linear0), (Counts{0, 0, 0, 0}));

  // The wildcard insert owes a rebuild, counted under the template that
  // served the table when the rebuild was owed.
  exact0 = totals("exact");
  Rule wildcard = exact_rule(0x0a000000, 99);
  wildcard.priority = 0;
  wildcard.matches[0].mask = 0xffffff00;
  ASSERT_TRUE(sw->apply_update({.kind = RuleUpdate::Kind::kInsert,
                                .table = 0,
                                .rule = wildcard})
                  .is_ok());
  EXPECT_EQ(delta(totals("exact"), exact0), (Counts{0, 0, 0, on}));
  EXPECT_EQ(delta(totals("linear"), linear0), (Counts{0, 0, 0, 0}));

  // From here on everything lands on template="linear".
  exact0 = totals("exact");
  sw->process_batch(keys, results);
  modify.rule = exact_rule(0x0a000003, 41);
  ASSERT_TRUE(sw->apply_update(modify).is_ok());
  ASSERT_TRUE(sw->apply_update({.kind = RuleUpdate::Kind::kRemove,
                                .table = 0,
                                .target = exact_rule(0x0a000005, 0).matches})
                  .is_ok());
  RuleUpdate fresh{.kind = RuleUpdate::Kind::kInsert,
                   .table = 0,
                   .rule = exact_rule(0x0a0000ff, 7)};
  ASSERT_TRUE(sw->apply_update(fresh).is_ok());
  sw->process_batch(keys, results);
  EXPECT_EQ(results[3].out_port, 41u);
  EXPECT_EQ(results[5].out_port, 99u);  // the wildcard catches it now
  EXPECT_EQ(delta(totals("exact"), exact0), (Counts{0, 0, 0, 0}));
  EXPECT_EQ(delta(totals("linear"), linear0), (Counts{2u * on, on, on, on}));
}

/// The (name, labels) of every switch metric in the registry.
using MetricKeys = std::set<std::pair<std::string, obs::Labels>>;
[[nodiscard]] MetricKeys switch_metric_keys() {
  MetricKeys keys;
  for (obs::MetricSnapshot& m :
       obs::MetricRegistry::global().scrape().metrics) {
    if (m.name.starts_with("maton_dp_")) {
      keys.emplace(std::move(m.name), std::move(m.labels));
    }
  }
  return keys;
}

/// A 300-intent goto churn trace: the initial program, the updates of
/// every accepted intent, and the final program.
struct ChurnTrace {
  Program initial;
  std::vector<std::vector<RuleUpdate>> batches;
  Program final_program;
};

[[nodiscard]] ChurnTrace goto_churn() {
  cp::GwlbBinding binding(
      workloads::make_gwlb({.num_services = 64, .num_backends = 8, .seed = 7}),
      cp::Representation::kGoto);
  ChurnTrace trace;
  trace.initial = binding.program();
  Rng rng(17);
  for (int i = 0; i < 300; ++i) {
    auto updates =
        binding.compile_intent(cp::draw_mixed_intent(rng, binding.gwlb()));
    if (updates.is_ok()) trace.batches.push_back(std::move(updates).value());
  }
  trace.final_program = binding.program();
  return trace;
}

/// Runs `first` then `second` in a fresh process (so the registry holds
/// only what they register) and exits 0 iff `second` registered no
/// switch metric `first` had not.
template <typename First, typename Second>
void exit_with_whether_second_adds_nothing(First first, Second second) {
  const ChurnTrace trace = goto_churn();
  const MetricKeys before = switch_metric_keys();
  first(trace);
  const MetricKeys after_first = switch_metric_keys();
  second(trace);
  const MetricKeys after_second = switch_metric_keys();
  std::exit(after_first.size() > before.size() && after_second == after_first
                ? 0
                : 1);
}

class UpdateMetricsDeathTest : public ::testing::TestWithParam<const char*> {};

TEST_P(UpdateMetricsDeathTest, ChurnRegistersWhatAFreshLoadOfTheResultDoes) {
  // Run in a re-executed child: the process-wide registry then starts
  // empty, so "registered" means registered by these two switches.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  const std::string model = GetParam();
  const auto churned = [&model](const ChurnTrace& trace) {
    auto sw = make_model(model);
    if (!sw->load(trace.initial).is_ok()) std::exit(2);
    for (const auto& batch : trace.batches) {
      if (!sw->apply_updates(batch).is_ok()) std::exit(2);
    }
    if (!(sw->program() == trace.final_program)) std::exit(2);
  };
  const auto fresh = [&model](const ChurnTrace& trace) {
    auto sw = make_model(model);
    if (!sw->load(trace.final_program).is_ok()) std::exit(2);
  };
  // Both orders: each switch registers nothing the other did not.
  EXPECT_EXIT(exit_with_whether_second_adds_nothing(churned, fresh),
              ::testing::ExitedWithCode(0), "");
  EXPECT_EXIT(exit_with_whether_second_adds_nothing(fresh, churned),
              ::testing::ExitedWithCode(0), "");
}

INSTANTIATE_TEST_SUITE_P(Models, UpdateMetricsDeathTest,
                         ::testing::Values("eswitch", "lagopus"));

}  // namespace
}  // namespace maton::dp

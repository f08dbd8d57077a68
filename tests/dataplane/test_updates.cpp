// Rule-update plumbing across switch models: insert / remove / modify
// semantics, priority re-sorting, and classifier recompilation.
#include <gtest/gtest.h>

#include "dataplane/switch.hpp"

namespace maton::dp {
namespace {

constexpr std::uint64_t kFull32 = 0xffffffffULL;

Program two_rule_program() {
  Program program;
  TableSpec table;
  table.name = "t0";
  table.fields = {FieldId::kIpDst};
  Rule a;
  a.priority = 32;
  a.matches = {{FieldId::kIpDst, 1, kFull32}};
  a.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 10}};
  Rule b = a;
  b.matches[0].value = 2;
  b.actions[0].value = 20;
  table.rules = {a, b};
  program.tables.push_back(std::move(table));
  return program;
}

FlowKey key(std::uint64_t dst) {
  FlowKey k;
  k.set(FieldId::kIpDst, dst);
  return k;
}

class UpdateSemantics : public ::testing::TestWithParam<const char*> {
 protected:
  static std::unique_ptr<SwitchModel> make() {
    const std::string_view which = GetParam();
    if (which == "eswitch") return make_eswitch_model();
    if (which == "lagopus") return make_lagopus_model();
    if (which == "ovs") return make_ovs_model();
    return std::make_unique<HwTcamModel>();
  }
};

TEST_P(UpdateSemantics, InsertAddsForwardingState) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  EXPECT_FALSE(sw->process(key(3)).hit);

  RuleUpdate insert;
  insert.kind = RuleUpdate::Kind::kInsert;
  insert.table = 0;
  insert.rule.priority = 32;
  insert.rule.matches = {{FieldId::kIpDst, 3, kFull32}};
  insert.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 30}};
  ASSERT_TRUE(sw->apply_update(insert).is_ok());

  const ExecResult r = sw->process(key(3));
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.out_port, 30u);
  // Pre-existing state unaffected.
  EXPECT_EQ(sw->process(key(1)).out_port, 10u);
}

TEST_P(UpdateSemantics, RemoveDeletesForwardingState) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  ASSERT_TRUE(sw->process(key(2)).hit);

  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.table = 0;
  remove.target = {{FieldId::kIpDst, 2, kFull32}};
  ASSERT_TRUE(sw->apply_update(remove).is_ok());
  EXPECT_FALSE(sw->process(key(2)).hit);
  EXPECT_TRUE(sw->process(key(1)).hit);
}

TEST_P(UpdateSemantics, ModifyReplacesActions) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());

  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.table = 0;
  modify.target = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.priority = 32;
  modify.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 99}};
  ASSERT_TRUE(sw->apply_update(modify).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 99u);
}

TEST_P(UpdateSemantics, UpdateToUnknownTableFails) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  RuleUpdate bad;
  bad.kind = RuleUpdate::Kind::kInsert;
  bad.table = 7;
  const Status s = sw->apply_update(bad);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
}

TEST_P(UpdateSemantics, InsertedHigherPriorityRuleWins) {
  auto sw = make();
  Program program = two_rule_program();
  // Widen rule space: add a low-priority catch-all for dst 1's /8.
  ASSERT_TRUE(sw->load(program).is_ok());

  RuleUpdate insert;
  insert.kind = RuleUpdate::Kind::kInsert;
  insert.table = 0;
  insert.rule.priority = 64;  // beats the existing exact rule
  insert.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  insert.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 77}};
  ASSERT_TRUE(sw->apply_update(insert).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 77u);
}

INSTANTIATE_TEST_SUITE_P(Models, UpdateSemantics,
                         ::testing::Values("eswitch", "lagopus", "ovs",
                                           "hw"));

// ---------------------------------------------------------------------
// Batched apply_updates must be observationally identical to the scalar
// apply_update loop: same forwarding behavior, same per-update failure
// point, earlier updates still applied after a mid-sequence error.

std::vector<RuleUpdate> churn_updates() {
  std::vector<RuleUpdate> ups;
  for (std::uint64_t dst = 3; dst <= 8; ++dst) {
    RuleUpdate insert;
    insert.kind = RuleUpdate::Kind::kInsert;
    insert.table = 0;
    insert.rule.priority = 16 + static_cast<std::uint32_t>(dst % 3) * 16;
    insert.rule.matches = {{FieldId::kIpDst, dst, kFull32}};
    insert.rule.actions = {
        {Action::Kind::kOutput, FieldId::kMeta0, 100 + dst}};
    ups.push_back(insert);
  }
  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.target = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.priority = 32;
  modify.rule.matches = {{FieldId::kIpDst, 1, kFull32}};
  modify.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 91}};
  ups.push_back(modify);
  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.target = {{FieldId::kIpDst, 4, kFull32}};
  ups.push_back(remove);
  RuleUpdate shadow;
  shadow.kind = RuleUpdate::Kind::kInsert;
  shadow.rule.priority = 64;  // beats the round-one insert for dst 6
  shadow.rule.matches = {{FieldId::kIpDst, 6, kFull32}};
  shadow.rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 66}};
  ups.push_back(shadow);
  return ups;
}

TEST_P(UpdateSemantics, BatchedUpdatesMatchScalarLoop) {
  auto batched = make();
  auto scalar = make();
  ASSERT_TRUE(batched->load(two_rule_program()).is_ok());
  ASSERT_TRUE(scalar->load(two_rule_program()).is_ok());
  const auto replay = [](SwitchModel& sw) {
    std::vector<ExecResult> results;
    for (std::uint64_t dst = 0; dst <= 12; ++dst) {
      results.push_back(sw.process(key(dst)));
    }
    return results;
  };
  // Traffic before the updates, so counters must carry across them.
  (void)replay(*batched);
  (void)replay(*scalar);

  const std::vector<RuleUpdate> ups = churn_updates();
  ASSERT_TRUE(batched->apply_updates(ups).is_ok());
  for (const RuleUpdate& up : ups) {
    ASSERT_TRUE(scalar->apply_update(up).is_ok());
  }

  const std::vector<ExecResult> got = replay(*batched);
  const std::vector<ExecResult> want = replay(*scalar);
  for (std::size_t dst = 0; dst < got.size(); ++dst) {
    EXPECT_EQ(got[dst].hit, want[dst].hit) << "dst=" << dst;
    EXPECT_EQ(got[dst].out_port, want[dst].out_port) << "dst=" << dst;
  }

  // Same rule counters for every rule of the final program.
  const Program& program = scalar->program();
  ASSERT_TRUE(batched->program() == program);
  for (std::size_t t = 0; t < program.tables.size(); ++t) {
    for (const Rule& rule : program.tables[t].rules) {
      const auto cb = batched->read_rule_counter(t, rule.matches);
      const auto cs = scalar->read_rule_counter(t, rule.matches);
      ASSERT_TRUE(cb.is_ok());
      ASSERT_TRUE(cs.is_ok());
      EXPECT_EQ(cb.value(), cs.value());
    }
  }
  // The modified dst-1 rule kept its pre-update packet.
  const auto modified =
      batched->read_rule_counter(0, {{FieldId::kIpDst, 1, kFull32}});
  ASSERT_TRUE(modified.is_ok());
  EXPECT_EQ(modified.value(), 2u);

  // Same cache statistics on OVS: each applied update is one flush.
  const auto* batched_ovs = dynamic_cast<OvsModelInterface*>(batched.get());
  const auto* scalar_ovs = dynamic_cast<OvsModelInterface*>(scalar.get());
  ASSERT_EQ(batched_ovs == nullptr, scalar_ovs == nullptr);
  if (batched_ovs != nullptr) {
    const OvsStats a = batched_ovs->stats();
    const OvsStats b = scalar_ovs->stats();
    EXPECT_EQ(a.cache_hits, b.cache_hits);
    EXPECT_EQ(a.cache_misses, b.cache_misses);
    EXPECT_EQ(a.cache_entries, b.cache_entries);
    EXPECT_EQ(a.cache_flushes, b.cache_flushes);
    EXPECT_EQ(a.cache_flushes, ups.size());
  }

  // A batch that only removes lands as runs of one erase pass. Both
  // dst-6 rules share a match vector: the run must stop before the
  // second removal of it, which then takes the surviving duplicate.
  (void)replay(*batched);
  (void)replay(*scalar);
  std::vector<RuleUpdate> removals;
  for (const std::uint64_t dst : {7, 3, 6, 6, 1, 8}) {
    RuleUpdate remove;
    remove.kind = RuleUpdate::Kind::kRemove;
    remove.target = {{FieldId::kIpDst, dst, kFull32}};
    removals.push_back(std::move(remove));
  }
  ASSERT_TRUE(batched->apply_updates(removals).is_ok());
  for (const RuleUpdate& up : removals) {
    ASSERT_TRUE(scalar->apply_update(up).is_ok());
  }
  ASSERT_TRUE(batched->program() == scalar->program());
  EXPECT_EQ(batched->program().tables[0].rules.size(), 2u);
  const std::vector<ExecResult> got_after = replay(*batched);
  const std::vector<ExecResult> want_after = replay(*scalar);
  for (std::size_t dst = 0; dst < got_after.size(); ++dst) {
    EXPECT_EQ(got_after[dst].hit, want_after[dst].hit) << "dst=" << dst;
    EXPECT_EQ(got_after[dst].out_port, want_after[dst].out_port)
        << "dst=" << dst;
  }
  for (const Rule& rule : scalar->program().tables[0].rules) {
    const auto cb = batched->read_rule_counter(0, rule.matches);
    const auto cs = scalar->read_rule_counter(0, rule.matches);
    ASSERT_TRUE(cb.is_ok());
    ASSERT_TRUE(cs.is_ok());
    EXPECT_EQ(cb.value(), cs.value());
  }
  if (batched_ovs != nullptr) {
    EXPECT_EQ(batched_ovs->stats().cache_flushes,
              scalar_ovs->stats().cache_flushes);
  }
}

TEST_P(UpdateSemantics, BatchedUpdatesStopAtFirstFailure) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());

  std::vector<RuleUpdate> ups(3);
  ups[0].kind = RuleUpdate::Kind::kInsert;
  ups[0].rule.priority = 32;
  ups[0].rule.matches = {{FieldId::kIpDst, 40, kFull32}};
  ups[0].rule.actions = {{Action::Kind::kOutput, FieldId::kMeta0, 40}};
  ups[1].kind = RuleUpdate::Kind::kRemove;
  ups[1].target = {{FieldId::kIpDst, 999, kFull32}};  // no such rule
  ups[2] = ups[0];
  ups[2].rule.matches[0].value = 41;

  const Status s = sw->apply_updates(ups);
  ASSERT_FALSE(s.is_ok());
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  // Update 0 landed (non-atomic batch, like the scalar loop); update 2
  // never ran.
  EXPECT_TRUE(sw->process(key(40)).hit);
  EXPECT_FALSE(sw->process(key(41)).hit);
}

TEST_P(UpdateSemantics, EmptyBatchIsANoOp) {
  auto sw = make();
  ASSERT_TRUE(sw->load(two_rule_program()).is_ok());
  ASSERT_TRUE(sw->apply_updates({}).is_ok());
  EXPECT_EQ(sw->process(key(1)).out_port, 10u);
}

Rule rule_on(std::uint32_t priority, std::vector<FieldMatch> matches,
             std::uint64_t out) {
  Rule r;
  r.priority = priority;
  r.matches.assign(matches);
  r.actions = {{Action::Kind::kOutput, FieldId::kMeta0, out}};
  return r;
}

FlowKey dst_port(std::uint64_t dst, std::uint64_t port) {
  FlowKey k = key(dst);
  k.set(FieldId::kTcpDst, port);
  return k;
}

/// Loads `program` into both table-walk models, applies `updates`, and
/// checks process and process_batch against execute_reference on every
/// probe key.
void expect_walkers_match_reference(const Program& program,
                                    std::span<const RuleUpdate> updates,
                                    std::span<const FlowKey> probes) {
  for (const auto make : {make_eswitch_model, make_lagopus_model}) {
    auto sw = make();
    ASSERT_TRUE(sw->load(program).is_ok());
    ASSERT_TRUE(sw->apply_updates(updates).is_ok());
    std::vector<ExecResult> batch(probes.size());
    sw->process_batch(probes, batch);
    for (std::size_t i = 0; i < probes.size(); ++i) {
      const ExecResult want = execute_reference(sw->program(), probes[i]);
      const ExecResult scalar = sw->process(probes[i]);
      EXPECT_EQ(want.hit, scalar.hit) << sw->name() << " probe " << i;
      EXPECT_EQ(want.out_port, scalar.out_port)
          << sw->name() << " probe " << i;
      EXPECT_EQ(want.hit, batch[i].hit) << sw->name() << " probe " << i;
      EXPECT_EQ(want.out_port, batch[i].out_port)
          << sw->name() << " probe " << i;
    }
  }
}

// Each template must read a rule's matches as the reference does: a
// conjunction over every match, whatever the table declared.
TEST(TemplatesReadMatchesAsReference, ModifyThatWildcardsAnExactField) {
  Program program;
  TableSpec table;
  table.name = "exact";
  table.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  for (std::uint64_t i = 0; i < 8; ++i) {
    table.rules.push_back(rule_on(
        48, {{FieldId::kIpDst, 0x0a000000 + i, kFull32},
             {FieldId::kTcpDst, 80, 0xffff}},
        10 + i));
  }
  program.tables.push_back(std::move(table));
  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.table = 0;
  modify.target = {{FieldId::kIpDst, 0x0a000003, kFull32},
                   {FieldId::kTcpDst, 80, 0xffff}};
  modify.rule = rule_on(48, {{FieldId::kIpDst, 0x0a000003, kFull32}}, 42);
  const std::vector<FlowKey> probes = {
      dst_port(0x0a000003, 443), dst_port(0x0a000003, 80),
      dst_port(0x0a000004, 80), dst_port(0x0a000004, 443),
      dst_port(0x0b000000, 80)};
  expect_walkers_match_reference(program, {&modify, 1}, probes);
}

TEST(TemplatesReadMatchesAsReference, UpdateOnAnUndeclaredField) {
  Program program;
  TableSpec table;
  table.name = "dst";
  table.fields = {FieldId::kIpDst};
  table.rules = {rule_on(1, {{FieldId::kIpDst, 0x0a000001, kFull32}}, 2),
                 rule_on(1, {{FieldId::kIpDst, 0x0a000002, kFull32}}, 3)};
  program.tables.push_back(std::move(table));
  RuleUpdate insert;
  insert.kind = RuleUpdate::Kind::kInsert;
  insert.table = 0;
  insert.rule = rule_on(5,
                        {{FieldId::kIpDst, 0x0a000001, kFull32},
                         {FieldId::kTcpDst, 80, 0xffff}},
                        42);
  RuleUpdate modify;
  modify.kind = RuleUpdate::Kind::kModify;
  modify.table = 0;
  modify.target = {{FieldId::kIpDst, 0x0a000002, kFull32}};
  modify.rule = rule_on(1,
                        {{FieldId::kIpDst, 0x0a000002, kFull32},
                         {FieldId::kTcpDst, 80, 0xffff}},
                        43);
  const std::vector<FlowKey> probes = {
      dst_port(0x0a000001, 443), dst_port(0x0a000001, 80),
      dst_port(0x0a000002, 443), dst_port(0x0a000002, 80)};
  expect_walkers_match_reference(program, {&insert, 1}, probes);
  expect_walkers_match_reference(program, {&modify, 1}, probes);
}

TEST(TemplatesReadMatchesAsReference, RepeatedMatchesOnOneField) {
  Program program;
  TableSpec table;
  table.name = "src";
  table.fields = {FieldId::kIpSrc};
  table.rules = {rule_on(24,
                         {{FieldId::kIpSrc, 0x0a010000, 0xffff0000},
                          {FieldId::kIpSrc, 0x0a000000, 0xff000000}},
                         7),
                 rule_on(8, {{FieldId::kIpSrc, 0x0a000000, 0xff000000}}, 8)};
  program.tables.push_back(std::move(table));
  std::vector<FlowKey> probes;
  for (const std::uint64_t src : {0x0a020001ULL, 0x0a010203ULL, 0x0b000001ULL}) {
    FlowKey k;
    k.set(FieldId::kIpSrc, src);
    probes.push_back(k);
  }
  expect_walkers_match_reference(program, {}, probes);
}

TEST(UpdateProgram, StandaloneHelper) {
  Program program = two_rule_program();
  RuleUpdate remove;
  remove.kind = RuleUpdate::Kind::kRemove;
  remove.table = 0;
  remove.target = {{FieldId::kIpDst, 9, kFull32}};
  EXPECT_EQ(apply_update_to_program(program, remove).code(),
            StatusCode::kNotFound);
  remove.target = {{FieldId::kIpDst, 1, kFull32}};
  EXPECT_TRUE(apply_update_to_program(program, remove).is_ok());
  EXPECT_EQ(program.tables[0].rules.size(), 1u);
}

}  // namespace
}  // namespace maton::dp

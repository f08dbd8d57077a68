#include "core/pipeline.hpp"

#include <gtest/gtest.h>

namespace maton::core {
namespace {

Table simple_table() {
  Schema s;
  s.add_match("a");
  s.add_action("x");
  Table t("t", std::move(s));
  t.add_row(core::Row{1, 100});
  t.add_row(core::Row{2, 200});
  return t;
}

TEST(Pipeline, MetadataNameConvention) {
  EXPECT_TRUE(is_metadata_name("meta.t0"));
  EXPECT_TRUE(is_metadata_name("meta.tenant"));
  EXPECT_FALSE(is_metadata_name("out"));
  EXPECT_FALSE(is_metadata_name("metadata"));
}

TEST(Pipeline, SingleStageHitAndMiss) {
  const Pipeline p = Pipeline::single(simple_table());
  EXPECT_EQ(p.num_stages(), 1u);

  const EvalResult hit = p.evaluate({{"a", 1}});
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.actions.at("x"), 100u);
  EXPECT_EQ(hit.path, (std::vector<std::size_t>{0}));

  const EvalResult miss = p.evaluate({{"a", 3}});
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.actions.empty());
}

TEST(Pipeline, UnboundMatchFieldIsAMiss) {
  const Pipeline p = Pipeline::single(simple_table());
  const EvalResult r = p.evaluate({{"b", 1}});
  EXPECT_FALSE(r.hit);
}

TEST(Pipeline, MetadataJoinAcrossStages) {
  // Stage 0: a -> meta.g; stage 1: (meta.g) -> x.
  Schema s0;
  s0.add_match("a");
  s0.add_action("meta.g");
  Table t0("t0", std::move(s0));
  t0.add_row(core::Row{1, 0});
  t0.add_row(core::Row{2, 1});

  Schema s1;
  s1.add_match("meta.g");
  s1.add_action("x");
  Table t1("t1", std::move(s1));
  t1.add_row(core::Row{0, 100});
  t1.add_row(core::Row{1, 200});

  Pipeline p;
  const std::size_t first = p.add_stage({std::move(t0), {}, {}});
  const std::size_t second = p.add_stage({std::move(t1), {}, {}});
  p.stage(first).next = second;
  p.set_entry(first);
  ASSERT_TRUE(p.validate().is_ok());

  const EvalResult r = p.evaluate({{"a", 2}});
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.actions.at("x"), 200u);
  // Metadata must not leak into observable actions.
  EXPECT_EQ(r.actions.count("meta.g"), 0u);
  EXPECT_EQ(r.path, (std::vector<std::size_t>{0, 1}));
}

TEST(Pipeline, MissAtSecondStageSuppressesFirstStageActions) {
  // Stage 0 emits a real action, stage 1 misses: OpenFlow write-actions
  // semantics say the dropped packet produces no observable output.
  Schema s0;
  s0.add_match("a");
  s0.add_action("y");
  Table t0("t0", std::move(s0));
  t0.add_row(core::Row{1, 7});

  Schema s1;
  s1.add_match("b");
  s1.add_action("x");
  Table t1("t1", std::move(s1));
  t1.add_row(core::Row{5, 100});

  Pipeline p;
  const std::size_t first = p.add_stage({std::move(t0), {}, {}});
  const std::size_t second = p.add_stage({std::move(t1), {}, {}});
  p.stage(first).next = second;
  p.set_entry(first);

  const EvalResult r = p.evaluate({{"a", 1}, {"b", 6}});
  EXPECT_FALSE(r.hit);
  EXPECT_TRUE(r.actions.empty());
  EXPECT_EQ(r.path.size(), 2u);
}

TEST(Pipeline, GotoJoinSelectsPerRowTargets) {
  Schema s0;
  s0.add_match("svc");
  Table t0("t0", std::move(s0));
  t0.add_row(core::Row{10});
  t0.add_row(core::Row{20});

  auto leaf = [](Value out) {
    Schema s;
    s.add_match("src");
    s.add_action("out");
    Table t("leaf", std::move(s));
    t.add_row(core::Row{1, out});
    return t;
  };

  Pipeline p;
  const std::size_t root = p.add_stage({std::move(t0), {}, {}});
  const std::size_t l1 = p.add_stage({leaf(111), {}, {}});
  const std::size_t l2 = p.add_stage({leaf(222), {}, {}});
  p.stage(root).goto_targets = {l1, l2};
  p.set_entry(root);
  ASSERT_TRUE(p.validate().is_ok());

  EXPECT_EQ(p.evaluate({{"svc", 10}, {"src", 1}}).actions.at("out"), 111u);
  EXPECT_EQ(p.evaluate({{"svc", 20}, {"src", 1}}).actions.at("out"), 222u);
  EXPECT_FALSE(p.evaluate({{"svc", 30}, {"src", 1}}).hit);
}

TEST(Pipeline, ActionRewriteVisibleToLaterMatch) {
  // Stage 0 rewrites field "v"; stage 1 matches on the new value.
  Schema s0;
  s0.add_match("a");
  s0.add_action("v");
  Table t0("t0", std::move(s0));
  t0.add_row(core::Row{1, 42});

  Schema s1;
  s1.add_match("v");
  s1.add_action("out");
  Table t1("t1", std::move(s1));
  t1.add_row(core::Row{42, 5});

  Pipeline p;
  const std::size_t a = p.add_stage({std::move(t0), {}, {}});
  const std::size_t b = p.add_stage({std::move(t1), {}, {}});
  p.stage(a).next = b;
  p.set_entry(a);

  const EvalResult r = p.evaluate({{"a", 1}, {"v", 7}});
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.actions.at("out"), 5u);
}

TEST(Pipeline, FieldCountCountsGotoCells) {
  Pipeline p;
  Table t = simple_table();  // 2 rows × 2 cols = 4 fields
  Table leaf = simple_table();
  const std::size_t root = p.add_stage({std::move(t), {}, {}});
  const std::size_t l = p.add_stage({std::move(leaf), {}, {}});
  p.stage(root).goto_targets = {l, l};
  p.set_entry(root);
  // root: 4 cells + 2 goto cells; leaf: 4 cells.
  EXPECT_EQ(p.field_count(), 10u);
  EXPECT_EQ(p.total_entries(), 4u);
}

TEST(Pipeline, MaxDepth) {
  Pipeline p;
  const std::size_t a = p.add_stage({simple_table(), {}, {}});
  const std::size_t b = p.add_stage({simple_table(), {}, {}});
  const std::size_t c = p.add_stage({simple_table(), {}, {}});
  p.stage(a).next = b;
  p.stage(b).next = c;
  p.set_entry(a);
  EXPECT_EQ(p.max_depth(), 3u);
  EXPECT_EQ(Pipeline::single(simple_table()).max_depth(), 1u);
}

TEST(Pipeline, ValidateRejectsBadTargetsAndCycles) {
  Pipeline p;
  const std::size_t a = p.add_stage({simple_table(), {}, {}});
  p.stage(a).next = 7;  // out of range
  EXPECT_FALSE(p.validate().is_ok());

  Pipeline cyc;
  const std::size_t x = cyc.add_stage({simple_table(), {}, {}});
  const std::size_t y = cyc.add_stage({simple_table(), {}, {}});
  cyc.stage(x).next = y;
  cyc.stage(y).next = x;
  EXPECT_FALSE(cyc.validate().is_ok());
}

TEST(Pipeline, ValidateRejectsNonOrderIndependentStage) {
  Schema s;
  s.add_match("a");
  s.add_action("x");
  Table t("dup", std::move(s));
  t.add_row(core::Row{1, 10});
  t.add_row(core::Row{1, 20});
  Pipeline p = Pipeline::single(std::move(t));
  const Status st = p.validate();
  ASSERT_FALSE(st.is_ok());
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(Pipeline, SpliceReplacesStageTransparently) {
  // a -> x pipeline where the single stage is replaced by a two-stage
  // sub-pipeline computing the same function.
  Pipeline p = Pipeline::single(simple_table());

  Schema s0;
  s0.add_match("a");
  s0.add_action("meta.g");
  Table t0("sub0", std::move(s0));
  t0.add_row(core::Row{1, 0});
  t0.add_row(core::Row{2, 1});
  Schema s1;
  s1.add_match("meta.g");
  s1.add_action("x");
  Table t1("sub1", std::move(s1));
  t1.add_row(core::Row{0, 100});
  t1.add_row(core::Row{1, 200});
  Pipeline sub;
  const std::size_t f = sub.add_stage({std::move(t0), {}, {}});
  const std::size_t g = sub.add_stage({std::move(t1), {}, {}});
  sub.stage(f).next = g;
  sub.set_entry(f);

  p.splice(0, std::move(sub));
  ASSERT_TRUE(p.validate().is_ok());
  EXPECT_EQ(p.evaluate({{"a", 1}}).actions.at("x"), 100u);
  EXPECT_EQ(p.evaluate({{"a", 2}}).actions.at("x"), 200u);
  EXPECT_FALSE(p.evaluate({{"a", 3}}).hit);
}

TEST(Pipeline, SpliceInnerStageKeepsSuccessor) {
  // a → b → c chain; replace b with a sub-pipeline; c must still run.
  Schema sa;
  sa.add_match("a");
  Table ta("ta", std::move(sa));
  ta.add_row(core::Row{1});

  Schema sb;
  sb.add_match("a");
  sb.add_action("meta.m");
  Table tb("tb", std::move(sb));
  tb.add_row(core::Row{1, 3});

  Schema sc;
  sc.add_match("meta.m");
  sc.add_action("out");
  Table tc("tc", std::move(sc));
  tc.add_row(core::Row{3, 9});

  Pipeline p;
  const std::size_t a = p.add_stage({std::move(ta), {}, {}});
  const std::size_t b = p.add_stage({std::move(tb), {}, {}});
  const std::size_t c = p.add_stage({std::move(tc), {}, {}});
  p.stage(a).next = b;
  p.stage(b).next = c;
  p.set_entry(a);

  // Sub-pipeline computing the same meta.m in one stage.
  Schema ss;
  ss.add_match("a");
  ss.add_action("meta.m");
  Table ts("sub", std::move(ss));
  ts.add_row(core::Row{1, 3});
  p.splice(b, Pipeline::single(std::move(ts)));

  ASSERT_TRUE(p.validate().is_ok());
  const EvalResult r = p.evaluate({{"a", 1}});
  EXPECT_TRUE(r.hit);
  EXPECT_EQ(r.actions.at("out"), 9u);
}

TEST(Pipeline, ToStringShowsStructure) {
  Pipeline p = Pipeline::single(simple_table());
  const std::string s = p.to_string();
  EXPECT_NE(s.find("stage 0"), std::string::npos);
  EXPECT_NE(s.find("terminal"), std::string::npos);
}

}  // namespace
}  // namespace maton::core

#include "core/denormalize.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "core/decompose.hpp"
#include "core/equivalence.hpp"
#include "core/join.hpp"
#include "core/synthesis.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"
#include "workloads/sdx.hpp"

namespace maton::core {
namespace {

/// Compares up to column order: projects both onto the intersection of
/// names in a canonical order and compares row sets.
void expect_same_function(const Table& a, const Table& b) {
  ASSERT_EQ(a.num_cols(), b.num_cols()) << a.to_string() << b.to_string();
  // Reorder b's columns to a's attribute-name order.
  Schema reordered_schema;
  std::vector<std::size_t> order;
  for (const Attribute& attr : a.schema().attributes()) {
    const auto idx = b.schema().find(attr.name);
    ASSERT_TRUE(idx.has_value()) << "missing attribute " << attr.name;
    order.push_back(*idx);
    reordered_schema.add(a.schema().at(order.size() - 1));
  }
  Table reordered(b.name(), a.schema());
  for (const RowView r : b.rows()) {
    Row row;
    for (std::size_t c : order) row.push_back(r[c]);
    reordered.add_row(std::move(row));
  }
  EXPECT_TRUE(same_relation(a, reordered))
      << a.to_string() << "\nvs\n" << reordered.to_string();
}

TEST(Flatten, SingleStageIsIdentityUpToOrder) {
  const auto gwlb = workloads::make_paper_example();
  const auto flat = flatten(Pipeline::single(gwlb.universal));
  ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();
  expect_same_function(gwlb.universal, flat.value());
}

TEST(Flatten, RoundTripsEveryJoinKind) {
  // flatten(decompose(T)) == T — the paper's two directions compose to
  // the identity.
  const auto gwlb = workloads::make_paper_example();
  const Fd fd{AttrSet::single(workloads::kGwlbIpDst),
              AttrSet::single(workloads::kGwlbTcpDst)};
  for (const JoinKind join :
       {JoinKind::kGoto, JoinKind::kMetadata, JoinKind::kRematch}) {
    const auto dec = decompose_on_fd(gwlb.universal, fd, {join, "meta.t"});
    ASSERT_TRUE(dec.is_ok());
    const auto flat = flatten(dec.value().pipeline);
    ASSERT_TRUE(flat.is_ok())
        << to_string(join) << ": " << flat.status().to_string();
    expect_same_function(gwlb.universal, flat.value());
  }
}

TEST(Flatten, RoundTripsFullNormalization) {
  const auto l3 = workloads::make_paper_l3_example();
  core::FdSet model = l3.model_fds;
  model.add(l3.universal.schema().match_set(), l3.universal.schema().all());
  const auto out = normalize(l3.universal, {.join = JoinKind::kMetadata,
                                            .model_fds = model});
  ASSERT_TRUE(out.is_ok());
  const auto flat = flatten(out.value().pipeline);
  ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();
  expect_same_function(l3.universal, flat.value());
}

TEST(Flatten, HandBuiltGwlbPipelines) {
  const auto gwlb = workloads::make_gwlb(
      {.num_services = 6, .num_backends = 4, .seed = 77});
  for (const auto& pipeline :
       {cp::pipeline_for(gwlb, cp::Representation::kGoto),
        cp::pipeline_for(gwlb, cp::Representation::kMetadata),
        cp::pipeline_for(gwlb, cp::Representation::kRematch)}) {
    const auto flat = flatten(pipeline);
    ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();
    expect_same_function(gwlb.universal, flat.value());
  }
}

TEST(Flatten, SdxMetadataPipeline) {
  const auto sdx = workloads::make_sdx_example();
  const auto flat = flatten(sdx.repaired);
  ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();
  expect_same_function(sdx.universal, flat.value());
}

TEST(Flatten, InfeasiblePathsArePruned) {
  // Stage 1 writes v=42; stage 2's v=7 row is unreachable.
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
  t1.add_row(core::Row{7, 9});

  Pipeline p;
  const std::size_t a = p.add_stage({std::move(t0), {}, {}});
  const std::size_t b = p.add_stage({std::move(t1), {}, {}});
  p.stage(a).next = b;
  p.set_entry(a);

  const auto flat = flatten(p);
  ASSERT_TRUE(flat.is_ok()) << flat.status().to_string();
  EXPECT_EQ(flat.value().num_rows(), 1u);
  EXPECT_EQ(flat.value().at(0, flat.value().schema().index_of("out")), 5u);
}

TEST(Flatten, RejectsRaggedSchemas) {
  // Two goto branches matching different fields: no uniform table.
  Schema s0;
  s0.add_match("svc");
  Table t0("t0", std::move(s0));
  t0.add_row(core::Row{1});
  t0.add_row(core::Row{2});

  Schema sa;
  sa.add_match("x");
  sa.add_action("out");
  Table ta("ta", std::move(sa));
  ta.add_row(core::Row{5, 1});

  Schema sb;
  sb.add_match("y");  // different match field than ta
  sb.add_action("out");
  Table tb("tb", std::move(sb));
  tb.add_row(core::Row{6, 2});

  Pipeline p;
  const std::size_t root = p.add_stage({std::move(t0), {}, {}});
  const std::size_t la = p.add_stage({std::move(ta), {}, {}});
  const std::size_t lb = p.add_stage({std::move(tb), {}, {}});
  p.stage(root).goto_targets = {la, lb};
  p.set_entry(root);

  const auto flat = flatten(p);
  ASSERT_FALSE(flat.is_ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Flatten, RespectsRowLimit) {
  const auto gwlb = workloads::make_gwlb(
      {.num_services = 4, .num_backends = 4});
  const auto pipeline = cp::pipeline_for(gwlb, cp::Representation::kMetadata);
  const auto flat = flatten(pipeline, {.max_rows = 3});
  ASSERT_FALSE(flat.is_ok());
  EXPECT_EQ(flat.status().code(), StatusCode::kInvalidArgument);
}

TEST(Flatten, EmptyPipelineRejected) {
  EXPECT_FALSE(flatten(Pipeline{}).is_ok());
}

// Property: normalize-then-flatten is the identity on random 1NF tables.
class FlattenRoundTrip : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FlattenRoundTrip, NormalizeThenFlattenIsIdentity) {
  Rng rng(GetParam());
  Schema schema;
  const std::size_t match_cols = 1 + rng.index(3);
  const std::size_t action_cols = 1 + rng.index(2);
  for (std::size_t i = 0; i < match_cols; ++i) {
    schema.add_match("m" + std::to_string(i));
  }
  for (std::size_t i = 0; i < action_cols; ++i) {
    schema.add_action("a" + std::to_string(i));
  }
  Table t("rand", std::move(schema));
  std::set<std::vector<Value>> used;
  for (std::size_t r = 0; r < 2 + rng.index(12); ++r) {
    std::vector<Value> key;
    for (std::size_t c = 0; c < match_cols; ++c) {
      key.push_back(rng.uniform(0, 3));
    }
    if (!used.insert(key).second) continue;
    Row row = key;
    for (std::size_t c = 0; c < action_cols; ++c) {
      row.push_back(rng.uniform(0, 2));
    }
    t.add_row(std::move(row));
  }

  for (const JoinKind join : {JoinKind::kGoto, JoinKind::kMetadata}) {
    const auto out = normalize(t, {.target = NormalForm::kBoyceCodd,
                                   .join = join});
    ASSERT_TRUE(out.is_ok());
    const auto flat = flatten(out.value().pipeline);
    ASSERT_TRUE(flat.is_ok())
        << to_string(join) << ": " << flat.status().to_string() << "\n"
        << out.value().pipeline.to_string();
    expect_same_function(t, flat.value());
  }
}

INSTANTIATE_TEST_SUITE_P(Random, FlattenRoundTrip,
                         ::testing::Range<std::uint64_t>(500, 525));

}  // namespace
}  // namespace maton::core

#include "netkat/table_codec.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "core/decompose.hpp"
#include "core/synthesis.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"

namespace maton::netkat {
namespace {

using core::AttrSet;
using core::JoinKind;
using core::Schema;
using core::Table;

Table simple_table() {
  Schema s;
  s.add_match("a");
  s.add_action("x");
  Table t("t", std::move(s));
  t.add_row(core::Row{1, 100});
  t.add_row(core::Row{2, 200});
  return t;
}

TEST(FromTable, EncodesEqOne) {
  const Table t = simple_table();
  const PolicyPtr p = from_table(t);
  // Hit: packet a=1 → single output with x=100.
  const PacketSet hit = eval(p, {{"a", 1}});
  ASSERT_EQ(hit.size(), 1u);
  EXPECT_EQ(hit.begin()->at("x"), 100u);
  // Miss → empty set.
  EXPECT_TRUE(eval(p, {{"a", 9}}).empty());
}

TEST(FromTable, EmptyTableIsDrop) {
  Schema s;
  s.add_match("a");
  const Table t("t", s);
  EXPECT_EQ(from_table(t)->kind(), Policy::Kind::kDrop);
}

TEST(FromPipeline, LinearChainInlines) {
  // Table decomposed by metadata join evaluates identically under NetKAT.
  const auto gwlb = workloads::make_paper_example();
  const core::Fd fd{AttrSet::single(workloads::kGwlbIpDst),
                    AttrSet::single(workloads::kGwlbTcpDst)};
  const auto dec = core::decompose_on_fd(gwlb.universal, fd,
                                         {JoinKind::kMetadata, "meta.t"});
  ASSERT_TRUE(dec.is_ok());
  const auto report = verify_against_netkat(gwlb.universal,
                                            dec.value().pipeline);
  EXPECT_TRUE(report.consistent) << report.counterexample;
  EXPECT_GT(report.packets_checked, 0u);
}

TEST(FromPipeline, GotoJoinInlinesPerRow) {
  const auto gwlb = workloads::make_paper_example();
  const auto pipeline = cp::pipeline_for(gwlb, cp::Representation::kGoto);
  const auto report = verify_against_netkat(gwlb.universal, pipeline);
  EXPECT_TRUE(report.consistent) << report.counterexample;
}

TEST(FromPipeline, RematchJoin) {
  const auto gwlb = workloads::make_paper_example();
  const auto pipeline = cp::pipeline_for(gwlb, cp::Representation::kRematch);
  const auto report = verify_against_netkat(gwlb.universal, pipeline);
  EXPECT_TRUE(report.consistent) << report.counterexample;
}

TEST(FromPipeline, DetectsBrokenPipeline) {
  const Table t = simple_table();
  Table wrong("w", t.schema());
  wrong.add_row(core::Row{1, 100});
  wrong.add_row(core::Row{2, 999});
  const auto report =
      verify_against_netkat(t, core::Pipeline::single(wrong));
  EXPECT_FALSE(report.consistent);
  EXPECT_FALSE(report.counterexample.empty());
}

// Theorem 1 end-to-end: for tables whose FD relates header fields only,
// the Heath decomposition is NetKAT-equivalent to the original.
TEST(Theorem1, HeaderFieldDecompositionIsNetkatEquivalent) {
  const auto l3 = workloads::make_paper_l3_example();
  const auto out = core::normalize(l3.universal, {.join = JoinKind::kMetadata});
  ASSERT_TRUE(out.is_ok());
  const auto report =
      verify_against_netkat(l3.universal, out.value().pipeline);
  EXPECT_TRUE(report.consistent) << report.counterexample;
}

TEST(Theorem1, FullGwlbNormalizationIsNetkatEquivalent) {
  const auto gwlb = workloads::make_gwlb(
      {.num_services = 5, .num_backends = 4, .seed = 17});
  core::FdSet model = gwlb.model_fds;
  model.add(gwlb.universal.schema().match_set(),
            gwlb.universal.schema().all());
  for (const JoinKind join :
       {JoinKind::kGoto, JoinKind::kMetadata, JoinKind::kRematch}) {
    const auto out =
        core::normalize(gwlb.universal, {.join = join, .model_fds = model});
    ASSERT_TRUE(out.is_ok());
    const auto report =
        verify_against_netkat(gwlb.universal, out.value().pipeline);
    EXPECT_TRUE(report.consistent)
        << to_string(join) << ": " << report.counterexample;
  }
}

}  // namespace
}  // namespace maton::netkat

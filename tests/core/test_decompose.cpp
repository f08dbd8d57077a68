#include "core/decompose.hpp"

#include <gtest/gtest.h>

#include "core/equivalence.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"
#include "workloads/vlan.hpp"

namespace maton::core {
namespace {

using workloads::kGwlbIpDst;
using workloads::kGwlbTcpDst;

/// All three join kinds, for parameterized sweeps.
const JoinKind kAllJoins[] = {JoinKind::kGoto, JoinKind::kMetadata,
                              JoinKind::kRematch};

class GwlbDecompose : public ::testing::TestWithParam<JoinKind> {};

TEST_P(GwlbDecompose, PaperExampleDecomposesEquivalently) {
  // Fig. 1: decompose the universal gateway & load-balancer table along
  // ip_dst → tcp_dst with every join abstraction; all must be equivalent.
  const auto gwlb = workloads::make_paper_example();
  const Fd fd{AttrSet::single(kGwlbIpDst), AttrSet::single(kGwlbTcpDst)};
  const auto dec = decompose_on_fd(gwlb.universal, fd, {GetParam(), "meta.t"});
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();

  const auto report = check_equivalence(gwlb.universal, dec.value().pipeline);
  EXPECT_TRUE(report.equivalent) << report.counterexample;
  EXPECT_GT(report.packets_checked, gwlb.universal.num_rows());
}

TEST_P(GwlbDecompose, RandomInstanceDecomposesEquivalently) {
  const auto gwlb = workloads::make_gwlb({.num_services = 6,
                                          .num_backends = 4,
                                          .seed = 99});
  const Fd fd{AttrSet::single(kGwlbIpDst), AttrSet::single(kGwlbTcpDst)};
  const auto dec = decompose_on_fd(gwlb.universal, fd, {GetParam(), "meta.t"});
  ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
  const auto report = check_equivalence(gwlb.universal, dec.value().pipeline);
  EXPECT_TRUE(report.equivalent) << report.counterexample;
}

INSTANTIATE_TEST_SUITE_P(AllJoins, GwlbDecompose,
                         ::testing::ValuesIn(kAllJoins),
                         [](const auto& info) {
                           return std::string(to_string(info.param));
                         });

TEST(Decompose, GotoFootprintMatchesPaperArithmetic) {
  // §2: universal Fig. 1a = 24 fields; the goto pipeline of Fig. 1b = 21.
  const auto gwlb = workloads::make_paper_example();
  EXPECT_EQ(Pipeline::single(gwlb.universal).field_count(), 24u);

  const Fd fd{AttrSet::single(kGwlbIpDst), AttrSet::single(kGwlbTcpDst)};
  const auto dec =
      decompose_on_fd(gwlb.universal, fd, {JoinKind::kGoto, "meta.t"});
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value().pipeline.field_count(), 21u);
}

TEST(Decompose, MetadataJoinRecordsProvenance) {
  const auto gwlb = workloads::make_paper_example();
  const Fd fd{AttrSet::single(kGwlbIpDst), AttrSet::single(kGwlbTcpDst)};
  const auto dec =
      decompose_on_fd(gwlb.universal, fd, {JoinKind::kMetadata, "meta.t"});
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value().meta_name, "meta.t0");
  EXPECT_EQ(dec.value().meta_source_names,
            (std::vector<std::string>{"ip_dst"}));
  // Goto joins introduce no metadata.
  const auto goto_dec =
      decompose_on_fd(gwlb.universal, fd, {JoinKind::kGoto, "meta.t"});
  ASSERT_TRUE(goto_dec.is_ok());
  EXPECT_TRUE(goto_dec.value().meta_name.empty());
}

TEST(Decompose, ActionLhsProducesGroupTableShape) {
  // Fig. 2b: mod_dmac → (mod_ttl, mod_smac, out); the residual stage runs
  // first and forwards the next-hop group.
  const auto l3 = workloads::make_paper_l3_example();
  const Fd fd{AttrSet::single(workloads::kL3ModDmac),
              AttrSet{workloads::kL3ModTtl, workloads::kL3ModSmac,
                      workloads::kL3Out}};
  for (const JoinKind join : {JoinKind::kGoto, JoinKind::kMetadata}) {
    const auto dec = decompose_on_fd(l3.universal, fd, {join, "meta.t"});
    ASSERT_TRUE(dec.is_ok()) << dec.status().to_string();
    const auto report = check_equivalence(l3.universal, dec.value().pipeline);
    EXPECT_TRUE(report.equivalent) << report.counterexample;
    // Three next-hop groups: D1 (P1, P4), D2, D3.
    if (join == JoinKind::kGoto) {
      EXPECT_EQ(dec.value().pipeline.num_stages(), 4u);  // res + 3 groups
      for (std::size_t i = 1; i < 4; ++i) {
        EXPECT_EQ(dec.value().pipeline.stage(i).table.num_rows(), 1u);
      }
    }
  }
}

TEST(Decompose, ActionLhsRematchIsRejected) {
  const auto l3 = workloads::make_paper_l3_example();
  const Fd fd{AttrSet::single(workloads::kL3ModDmac),
              AttrSet::single(workloads::kL3Out)};
  const auto dec =
      decompose_on_fd(l3.universal, fd, {JoinKind::kRematch, "meta.t"});
  ASSERT_FALSE(dec.is_ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Decompose, Fig3ActionToMatchDependencyIsRejected) {
  // The paper's central caveat: decomposing on out → vlan (action →
  // match) would break 1NF; every join abstraction must refuse.
  const Table vlan = workloads::make_vlan_example();
  const Fd fd = workloads::vlan_action_to_match_fd();
  ASSERT_TRUE(fd_holds(vlan, fd));
  for (const JoinKind join : {JoinKind::kGoto, JoinKind::kMetadata}) {
    const auto dec = decompose_on_fd(vlan, fd, {join, "meta.t"});
    ASSERT_FALSE(dec.is_ok()) << "join " << to_string(join);
    EXPECT_EQ(dec.status().code(), StatusCode::kFailedPrecondition);
    EXPECT_NE(dec.status().message().find("Fig. 3"), std::string::npos);
  }
}

TEST(Decompose, RejectsTrivialAndNonHoldingFds) {
  const auto gwlb = workloads::make_paper_example();
  // Trivial.
  auto trivial = decompose_on_fd(
      gwlb.universal, {AttrSet::single(kGwlbIpDst),
                       AttrSet::single(kGwlbIpDst)},
      {});
  EXPECT_FALSE(trivial.is_ok());
  // Does not hold: tcp_dst -> ip_src.
  auto bogus = decompose_on_fd(
      gwlb.universal,
      {AttrSet::single(kGwlbTcpDst), AttrSet::single(workloads::kGwlbIpSrc)},
      {});
  EXPECT_FALSE(bogus.is_ok());
  EXPECT_EQ(bogus.status().code(), StatusCode::kFailedPrecondition);
}

TEST(Decompose, RejectsMixedLhs) {
  const auto l3 = workloads::make_paper_l3_example();
  const Fd fd{AttrSet{workloads::kL3IpDst, workloads::kL3Out},
              AttrSet::single(workloads::kL3ModSmac)};
  const auto dec = decompose_on_fd(l3.universal, fd, {});
  ASSERT_FALSE(dec.is_ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kUnimplemented);
}

TEST(Decompose, RejectsEmptyLhs) {
  const auto l3 = workloads::make_paper_l3_example();
  const Fd fd{AttrSet{}, AttrSet::single(workloads::kL3ModTtl)};
  const auto dec = decompose_on_fd(l3.universal, fd, {});
  EXPECT_FALSE(dec.is_ok());
}

TEST(Decompose, RejectsNon1NFInput) {
  Schema s;
  s.add_match("a");
  s.add_match("b");
  s.add_action("x");
  Table t("dup", std::move(s));
  t.add_row(core::Row{1, 1, 10});
  t.add_row(core::Row{1, 1, 20});
  const auto dec = decompose_on_fd(t, {AttrSet{0}, AttrSet{1}}, {});
  ASSERT_FALSE(dec.is_ok());
  EXPECT_EQ(dec.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ConstantColumns, DetectsConstants) {
  const auto l3 = workloads::make_paper_l3_example();
  const AttrSet constants = constant_columns(l3.universal);
  EXPECT_TRUE(constants.contains(workloads::kL3EthType));
  EXPECT_TRUE(constants.contains(workloads::kL3ModTtl));
  EXPECT_FALSE(constants.contains(workloads::kL3IpDst));
  Table empty("e", l3.universal.schema());
  EXPECT_TRUE(constant_columns(empty).empty());
}

TEST(FactorConstants, Fig2cProductStage) {
  const auto l3 = workloads::make_paper_l3_example();
  const auto factored = factor_constants(l3.universal);
  ASSERT_TRUE(factored.is_ok()) << factored.status().to_string();
  const Pipeline& p = factored.value();
  EXPECT_EQ(p.num_stages(), 2u);
  EXPECT_EQ(p.stage(p.entry()).table.num_rows(), 1u);
  const auto report = check_equivalence(l3.universal, p);
  EXPECT_TRUE(report.equivalent) << report.counterexample;
}

TEST(FactorConstants, RejectsDegenerateInputs) {
  Schema s;
  s.add_match("a");
  s.add_action("x");
  Table one("one", s);
  one.add_row(core::Row{1, 2});
  EXPECT_FALSE(factor_constants(one).is_ok());

  Table varied("varied", s);
  varied.add_row(core::Row{1, 2});
  varied.add_row(core::Row{2, 3});
  EXPECT_FALSE(factor_constants(varied).is_ok());

  Table all_const("const", s);
  all_const.add_row(core::Row{1, 2});
  all_const.add_row(core::Row{1, 2});
  // Duplicate rows are not order-independent anyway; use distinct schema.
  Schema s2;
  s2.add_match("a");
  Table c2("c2", s2);
  c2.add_row(core::Row{1});
  c2.add_row(core::Row{1});
  EXPECT_FALSE(factor_constants(c2).is_ok());
}

}  // namespace
}  // namespace maton::core

#include "workloads/gwlb.hpp"

#include <gtest/gtest.h>

#include <set>

#include "controlplane/representation.hpp"
#include "core/equivalence.hpp"
#include "util/format.hpp"

namespace maton::workloads {
namespace {

TEST(GwlbPaperExample, MatchesFig1aStructure) {
  const Gwlb gwlb = make_paper_example();
  EXPECT_EQ(gwlb.services.size(), 3u);
  EXPECT_EQ(gwlb.universal.num_rows(), 6u);
  EXPECT_EQ(gwlb.universal.num_cols(), 4u);
  EXPECT_TRUE(gwlb.universal.is_order_independent());
  // §2: "the universal table in Fig. 1a contains 24 match-action fields".
  EXPECT_EQ(gwlb.universal.field_count(), 24u);

  // Tenants at the paper's addresses.
  EXPECT_EQ(gwlb.services[0].vip, ipv4(192, 0, 2, 1));
  EXPECT_EQ(gwlb.services[0].port, 80u);
  EXPECT_EQ(gwlb.services[1].port, 443u);
  EXPECT_EQ(gwlb.services[2].port, 22u);
  // Tenant 2 splits 1:1:2 across three backends.
  EXPECT_EQ(gwlb.services[1].src_prefixes.size(), 3u);
}

TEST(GwlbPaperExample, PipelineFieldCounts) {
  const Gwlb gwlb = make_paper_example();
  // §2: Fig. 1b (goto) holds 21 fields.
  EXPECT_EQ(cp::pipeline_for(gwlb, cp::Representation::kGoto).field_count(),
            21u);
  // Metadata re-states the tag per backend row: 3·3 + 6·3 = 27.
  EXPECT_EQ(cp::pipeline_for(gwlb, cp::Representation::kMetadata).field_count(),
            27u);
  // Rematch re-states ip_dst per backend row: 3·2 + 6·3 = 24.
  EXPECT_EQ(cp::pipeline_for(gwlb, cp::Representation::kRematch).field_count(),
            24u);
}

TEST(GwlbGenerator, FieldCountFormulas) {
  // §2: N services with M backends → universal 4MN fields, goto-form
  // N(3+2M).
  for (const auto& [n, m] : {std::pair<std::size_t, std::size_t>{4, 4},
                             {20, 8},
                             {1, 2},
                             {16, 1}}) {
    const Gwlb gwlb = make_gwlb({.num_services = n, .num_backends = m});
    EXPECT_EQ(core::Pipeline::single(gwlb.universal).field_count(),
              4 * m * n);
    EXPECT_EQ(cp::pipeline_for(gwlb, cp::Representation::kGoto).field_count(),
              n * (3 + 2 * m));
  }
}

TEST(GwlbGenerator, ShapeAndUniqueness) {
  const Gwlb gwlb =
      make_gwlb({.num_services = 20, .num_backends = 8, .seed = 11});
  EXPECT_EQ(gwlb.universal.num_rows(), 160u);
  std::set<std::uint32_t> vips;
  std::set<std::uint64_t> vms;
  for (const GwlbService& svc : gwlb.services) {
    vips.insert(svc.vip);
    EXPECT_EQ(svc.src_prefixes.size(), 8u);
    for (std::uint64_t vm : svc.backends) vms.insert(vm);
  }
  EXPECT_EQ(vips.size(), 20u);
  EXPECT_EQ(vms.size(), 160u);
  EXPECT_TRUE(gwlb.universal.is_order_independent());
}

TEST(GwlbGenerator, BackendPrefixesPartitionSourceSpace) {
  const Gwlb gwlb = make_gwlb({.num_services = 1, .num_backends = 8});
  const auto& svc = gwlb.services[0];
  std::set<std::uint32_t> bases;
  for (std::uint64_t token : svc.src_prefixes) {
    EXPECT_EQ(token & 0xff, 3u);  // /3 prefixes for M=8
    bases.insert(static_cast<std::uint32_t>(token >> 8));
  }
  EXPECT_EQ(bases.size(), 8u);  // disjoint
}

TEST(GwlbGenerator, DeterministicAcrossRuns) {
  const Gwlb a = make_gwlb({.num_services = 5, .num_backends = 4, .seed = 9});
  const Gwlb b = make_gwlb({.num_services = 5, .num_backends = 4, .seed = 9});
  EXPECT_EQ(a.universal, b.universal);
  const Gwlb c =
      make_gwlb({.num_services = 5, .num_backends = 4, .seed = 10});
  EXPECT_NE(a.universal, c.universal);
}

TEST(GwlbGenerator, RejectsBadConfig) {
  EXPECT_THROW((void)make_gwlb({.num_services = 0}), ContractViolation);
  EXPECT_THROW((void)make_gwlb({.num_services = 1, .num_backends = 3}),
               ContractViolation);
}

TEST(GwlbGenerator, ModelFdHoldsInInstance) {
  const Gwlb gwlb = make_gwlb({.num_services = 12, .num_backends = 4});
  for (const core::Fd& fd : gwlb.model_fds.fds()) {
    EXPECT_TRUE(core::fd_holds(gwlb.universal, fd));
  }
}

TEST(GwlbGenerator, ScaledPipelinesEquivalent) {
  const Gwlb gwlb =
      make_gwlb({.num_services = 6, .num_backends = 8, .seed = 21});
  for (const auto& pipeline :
       {cp::pipeline_for(gwlb, cp::Representation::kGoto),
        cp::pipeline_for(gwlb, cp::Representation::kMetadata),
        cp::pipeline_for(gwlb, cp::Representation::kRematch)}) {
    const auto report = core::check_equivalence(gwlb.universal, pipeline);
    EXPECT_TRUE(report.equivalent) << report.counterexample;
  }
}

}  // namespace
}  // namespace maton::workloads

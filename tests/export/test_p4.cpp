#include "export/p4.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "core/synthesis.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"

namespace maton::exporter {
namespace {

std::size_t count(const std::string& text, const std::string& needle) {
  std::size_t n = 0;
  std::size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    ++n;
    pos += needle.size();
  }
  return n;
}

TEST(P4Export, MetadataPipelineExports) {
  const auto gwlb = workloads::make_paper_example();
  const auto pipeline = cp::pipeline_for(gwlb, cp::Representation::kMetadata);
  const auto out = to_p4(pipeline, {.program_name = "gwlb"});
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  const std::string& p4 = out.value();

  // Skeleton pieces.
  EXPECT_NE(p4.find("#include <v1model.p4>"), std::string::npos);
  EXPECT_NE(p4.find("V1Switch("), std::string::npos);
  EXPECT_NE(p4.find("parser MatonParser"), std::string::npos);

  // One table per stage with the right keys.
  EXPECT_EQ(count(p4, "table "), 2u);
  EXPECT_NE(p4.find("hdr.ipv4.dst_addr : exact;"), std::string::npos);
  EXPECT_NE(p4.find("hdr.ipv4.src_addr : lpm;"), std::string::npos);
  // The tenant tag becomes a user-metadata field, written then matched.
  EXPECT_NE(p4.find("bit<16> meta_tenant;"), std::string::npos);
  EXPECT_NE(p4.find("meta.meta_tenant : exact;"), std::string::npos);
  EXPECT_NE(p4.find("meta.meta_tenant = "), std::string::npos);

  // Entries: 3 service rows + 6 LB rows.
  EXPECT_EQ(count(p4, "_act("), 2u + 3u + 6u);  // 2 decls + 9 entries
  // Output action writes egress_spec.
  EXPECT_NE(p4.find("standard_metadata.egress_spec"), std::string::npos);
  // Hit-gated apply chain.
  EXPECT_EQ(count(p4, ".apply().hit"), 2u);
}

TEST(P4Export, PrefixEntriesUseMaskSyntax) {
  const auto gwlb = workloads::make_paper_example();
  const auto out = to_p4(core::Pipeline::single(gwlb.universal));
  ASSERT_TRUE(out.is_ok());
  // Tenant 1's 128.0.0.0/1 prefix: value &&& mask.
  EXPECT_NE(out.value().find("0x80000000 &&& 0x80000000"),
            std::string::npos);
  // Tenant 3's /0 prefix: zero mask.
  EXPECT_NE(out.value().find("0x0 &&& 0x0"), std::string::npos);
}

TEST(P4Export, GotoPipelineIsRejectedWithGuidance) {
  const auto gwlb = workloads::make_paper_example();
  const auto out = to_p4(cp::pipeline_for(gwlb, cp::Representation::kGoto));
  ASSERT_FALSE(out.is_ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnimplemented);
  EXPECT_NE(out.status().message().find("kMetadata"), std::string::npos);
}

TEST(P4Export, NormalizedL3PipelineExports) {
  const auto l3 = workloads::make_paper_l3_example();
  core::FdSet model = l3.model_fds;
  model.add(l3.universal.schema().match_set(), l3.universal.schema().all());
  const auto normalized = core::normalize(
      l3.universal,
      {.join = core::JoinKind::kMetadata, .model_fds = model});
  ASSERT_TRUE(normalized.is_ok());
  const auto out = to_p4(normalized.value().pipeline);
  ASSERT_TRUE(out.is_ok()) << out.status().to_string();
  // Spliced husk stages are skipped; the real stages export.
  EXPECT_EQ(count(out.value(), "table "), 4u);
  EXPECT_NE(out.value().find("hdr.ethernet.dst_addr"), std::string::npos);
  EXPECT_NE(out.value().find("hdr.ipv4.ttl"), std::string::npos);
}

TEST(P4Export, EmptyPipelineRejected) {
  EXPECT_FALSE(to_p4(core::Pipeline{}).is_ok());
}

}  // namespace
}  // namespace maton::exporter

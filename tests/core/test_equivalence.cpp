#include "core/equivalence.hpp"

#include <gtest/gtest.h>

#include "controlplane/representation.hpp"
#include "workloads/gwlb.hpp"

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

TEST(Equivalence, PacketAndActionsOfRow) {
  const Table t = simple_table();
  EXPECT_EQ(packet_for_row(t, 0), (PacketState{{"a", 1}}));
  EXPECT_EQ(actions_of_row(t, 1), (PacketState{{"x", 200}}));
}

TEST(Equivalence, MetadataExcludedFromRowActions) {
  Schema s;
  s.add_match("a");
  s.add_action("meta.g");
  s.add_action("x");
  Table t("t", std::move(s));
  t.add_row(core::Row{1, 7, 100});
  EXPECT_EQ(actions_of_row(t, 0), (PacketState{{"x", 100}}));
}

TEST(Equivalence, TableIsEquivalentToItself) {
  const Table t = simple_table();
  const auto report = check_equivalence(t, Pipeline::single(t));
  EXPECT_TRUE(report.equivalent);
  EXPECT_GE(report.packets_checked, t.num_rows());
}

TEST(Equivalence, DetectsWrongAction) {
  const Table t = simple_table();
  Table wrong = simple_table();
  Table w("w", t.schema());
  w.add_row(core::Row{1, 100});
  w.add_row(core::Row{2, 999});  // wrong output for a=2
  const auto report = check_equivalence(t, Pipeline::single(w));
  EXPECT_FALSE(report.equivalent);
  EXPECT_FALSE(report.counterexample.empty());
  EXPECT_NE(report.counterexample.find("a=2"), std::string::npos);
}

TEST(Equivalence, DetectsMissingEntry) {
  const Table t = simple_table();
  Table w("w", t.schema());
  w.add_row(core::Row{1, 100});  // entry for a=2 missing
  const auto report = check_equivalence(t, Pipeline::single(w));
  EXPECT_FALSE(report.equivalent);
  EXPECT_NE(report.counterexample.find("misses"), std::string::npos);
}

TEST(Equivalence, DetectsExtraEntryViaRandomProbes) {
  const Table t = simple_table();
  Table w("w", t.schema());
  w.add_row(core::Row{1, 100});
  w.add_row(core::Row{2, 200});
  w.add_row(core::Row{0, 300});  // extra: matches the fresh probe value 0
  const auto report =
      check_equivalence(t, Pipeline::single(w), {.random_probes = 512});
  EXPECT_FALSE(report.equivalent);
}

TEST(Equivalence, HandMadeGwlbPipelinesAreEquivalent) {
  // The Fig. 1b/1c/1d pipelines are equivalent to Fig. 1a.
  const auto gwlb = workloads::make_paper_example();
  for (const auto& [name, pipeline] :
       {std::pair{"goto", cp::pipeline_for(gwlb, cp::Representation::kGoto)},
        std::pair{"metadata",
                  cp::pipeline_for(gwlb, cp::Representation::kMetadata)},
        std::pair{"rematch",
                  cp::pipeline_for(gwlb, cp::Representation::kRematch)}}) {
    const auto report = check_equivalence(gwlb.universal, pipeline);
    EXPECT_TRUE(report.equivalent)
        << name << ": " << report.counterexample;
  }
}

TEST(Equivalence, ScaledGwlbPipelinesAreEquivalent) {
  const auto gwlb =
      workloads::make_gwlb({.num_services = 10, .num_backends = 8, .seed = 5});
  for (const auto& pipeline :
       {cp::pipeline_for(gwlb, cp::Representation::kGoto),
        cp::pipeline_for(gwlb, cp::Representation::kMetadata),
        cp::pipeline_for(gwlb, cp::Representation::kRematch)}) {
    const auto report = check_equivalence(gwlb.universal, pipeline);
    EXPECT_TRUE(report.equivalent) << report.counterexample;
  }
}

TEST(Equivalence, EmptyTable) {
  Schema s;
  s.add_match("a");
  s.add_action("x");
  const Table t("empty", s);
  const auto report = check_equivalence(t, Pipeline::single(t));
  EXPECT_TRUE(report.equivalent);
}

}  // namespace
}  // namespace maton::core

// Multi-valued dependencies, 4NF and join dependencies — the paper's
// "beyond 3NF" frontier (§6 + appendix).
#include "core/mvd.hpp"

#include <gtest/gtest.h>

#include "core/fd_mine.hpp"
#include "core/join.hpp"
#include "workloads/sdx.hpp"

namespace maton::core {
namespace {

/// The classic MVD example in match-action attire: a policy table where
/// a customer's set of allowed ports and set of egress mirrors combine
/// freely — every (customer, port, mirror) combination is materialized.
Table make_mirror_table() {
  Schema s;
  s.add_match("customer");
  s.add_match("tcp_dst", ValueCodec::kPort, 16);
  s.add_action("mirror", ValueCodec::kPort, 16);
  Table t("mirror", std::move(s));
  // Customer 1: ports {80, 443} × mirrors {7, 8} — all four rows.
  t.add_row(core::Row{1, 80, 7});
  t.add_row(core::Row{1, 80, 8});
  t.add_row(core::Row{1, 443, 7});
  t.add_row(core::Row{1, 443, 8});
  // Customer 2: ports {22} × mirrors {7}.
  t.add_row(core::Row{2, 22, 7});
  // Customer 3: shares port 80 but with its own mirror, so tcp_dst does
  // not multi-determine anything across customers.
  t.add_row(core::Row{3, 80, 9});
  return t;
}

TEST(MvdHolds, FreeCombinationDetected) {
  const Table t = make_mirror_table();
  // customer ↠ tcp_dst (equivalently customer ↠ mirror).
  EXPECT_TRUE(mvd_holds(t, {AttrSet{0}, AttrSet{1}}));
  EXPECT_TRUE(mvd_holds(t, {AttrSet{0}, AttrSet{2}}));
  // tcp_dst does not multi-determine mirror: port 80's customers {1, 3}
  // and mirrors {7, 8, 9} do not combine freely.
  EXPECT_FALSE(mvd_holds(t, {AttrSet{1}, AttrSet{2}}));
}

TEST(MvdHolds, BrokenCombinationRejected) {
  Table t = make_mirror_table();
  // Remove one combination: no longer a free product.
  Table broken("broken", t.schema());
  for (std::size_t r = 0; r + 1 < t.num_rows(); ++r) {
    broken.add_row(t.row(r));
  }
  // Dropped (2,22,7), which was a singleton group — still fine; drop one
  // of customer 1's rows instead.
  Table broken2("broken2", t.schema());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (r != 1) broken2.add_row(t.row(r));  // drop (1, 80, 8)
  }
  EXPECT_FALSE(mvd_holds(broken2, {AttrSet{0}, AttrSet{1}}));
}

TEST(MvdHolds, TrivialCases) {
  const Table t = make_mirror_table();
  EXPECT_TRUE(mvd_holds(t, {AttrSet{0}, AttrSet{0}}));          // Y ⊆ X
  EXPECT_TRUE(mvd_holds(t, {AttrSet{0}, AttrSet{1, 2}}));       // Z empty
  EXPECT_TRUE(mvd_holds(t, {AttrSet{0, 1, 2}, AttrSet{}}));     // all
}

TEST(MvdHolds, EveryFdIsAnMvd) {
  const Table t = make_mirror_table();
  const FdSet fds = mine_fds_tane(t);
  for (const Fd& fd : fds.fds()) {
    EXPECT_TRUE(mvd_holds(t, {fd.lhs, fd.rhs}))
        << to_string(fd, t.schema());
  }
}

TEST(MineMvds, FindsTheProperMvd) {
  const Table t = make_mirror_table();
  const auto mvds = mine_mvds(t);
  bool found = false;
  for (const Mvd& mvd : mvds) {
    if (mvd.lhs == AttrSet{0} &&
        (mvd.rhs == AttrSet{1} || mvd.rhs == AttrSet{2})) {
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(Analyze4Nf, MirrorTableViolates4NF) {
  const Table t = make_mirror_table();
  // No FD short of the key explains the redundancy — the table is fine
  // up to BCNF territory but violates 4NF via the proper MVD.
  const Nf4Report report = analyze_4nf(t);
  EXPECT_FALSE(report.satisfied);
  ASSERT_FALSE(report.violations.empty());
  EXPECT_EQ(report.violations[0].lhs, AttrSet{0});
}

TEST(Analyze4Nf, MvdDecompositionRepairsIt) {
  // Splitting ports and mirrors into two tables removes the violation.
  const Table t = make_mirror_table();
  const Table ports = t.project(AttrSet{0, 1}, "ports");
  const Table mirrors = t.project(AttrSet{0, 2}, "mirrors");
  EXPECT_TRUE(analyze_4nf(ports).satisfied);
  EXPECT_TRUE(analyze_4nf(mirrors).satisfied);
  // And the split is lossless: the MVD *is* the binary join dependency.
  const AttrSet components[] = {AttrSet{0, 1}, AttrSet{0, 2}};
  EXPECT_TRUE(jd_holds(t, components));
}

TEST(JoinDependency, FailsWhenCombinationIsNotFree) {
  Table t = make_mirror_table();
  Table broken("broken", t.schema());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    if (r != 1) broken.add_row(t.row(r));
  }
  const AttrSet components[] = {AttrSet{0, 1}, AttrSet{0, 2}};
  EXPECT_FALSE(jd_holds(broken, components));
}

TEST(JoinDependency, ContractChecks) {
  const Table t = make_mirror_table();
  const AttrSet partial[] = {AttrSet{0, 1}};  // does not cover column 2
  EXPECT_THROW((void)jd_holds(t, partial), ContractViolation);
  EXPECT_THROW((void)jd_holds(t, {}), ContractViolation);
}

TEST(SdxAppendix, ProperMvdsExistButAreActionSided) {
  // The appendix's point, sharpened by the instance: the SDX table does
  // contain proper MVDs (within the BGP-default group, destination
  // service and hash combine freely: out ↠ (ip_dst, tcp_dst)) — but
  // every one of them carries the action `out` on its left-hand side,
  // the undecomposable action→match shape of Fig. 3. So 4NF machinery
  // cannot produce the announcement/outbound/inbound split either; that
  // split is a join dependency over *derived* attributes (Fig. 5c's
  // metadata), which is exactly what the appendix proposes.
  const auto sdx = workloads::make_sdx_example();
  const Nf4Report report = analyze_4nf(sdx.universal);
  EXPECT_FALSE(report.satisfied);
  const AttrSet out = AttrSet::single(workloads::kSdxOut);
  for (const Mvd& mvd : report.violations) {
    EXPECT_TRUE(mvd.lhs.contains(workloads::kSdxOut))
        << to_string(mvd, sdx.universal.schema());
  }
  (void)out;
}

}  // namespace
}  // namespace maton::core

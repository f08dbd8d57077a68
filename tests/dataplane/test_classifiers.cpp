// Classifier templates: each specialized template must agree with the
// linear reference on every lookup, across structured and random rule
// sets.
#include "dataplane/classifier.hpp"

#include <gtest/gtest.h>

#include "util/format.hpp"
#include "util/rng.hpp"

namespace maton::dp {
namespace {

constexpr std::uint64_t kFull32 = 0xffffffffULL;
constexpr std::uint64_t kFull16 = 0xffffULL;

TableSpec exact_table(std::size_t n) {
  TableSpec t;
  t.name = "exact";
  t.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  for (std::size_t i = 0; i < n; ++i) {
    Rule r;
    r.priority = 48;
    r.matches = {{FieldId::kIpDst, 1000 + i, kFull32},
                 {FieldId::kTcpDst, (i % 7) * 100, kFull16}};
    t.rules.push_back(std::move(r));
  }
  return t;
}

FlowKey make_key(std::uint64_t dst, std::uint64_t port,
                 std::uint64_t src = 0) {
  FlowKey k;
  k.set(FieldId::kIpDst, dst);
  k.set(FieldId::kTcpDst, port);
  k.set(FieldId::kIpSrc, src);
  return k;
}

TEST(ExactMatch, HitsAndMisses) {
  const TableSpec t = exact_table(32);
  const auto c = make_exact_match(t);
  EXPECT_EQ(c->name(), "exact");
  for (std::size_t i = 0; i < 32; ++i) {
    const auto hit = c->lookup(make_key(1000 + i, (i % 7) * 100));
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(t.rules[*hit].matches_key(make_key(1000 + i, (i % 7) * 100)));
  }
  EXPECT_FALSE(c->lookup(make_key(999, 0)).has_value());
  EXPECT_FALSE(c->lookup(make_key(1000, 1)).has_value());
}

TEST(ExactMatch, ZeroFieldTableAlwaysHits) {
  TableSpec t;
  t.name = "const";
  Rule r;
  r.priority = 0;
  t.rules.push_back(r);
  const auto c = make_exact_match(t);
  EXPECT_TRUE(c->lookup(FlowKey{}).has_value());
}

TEST(ExactMatch, RejectsNonExactRules) {
  TableSpec t;
  t.fields = {FieldId::kIpDst};
  Rule r;
  r.matches = {{FieldId::kIpDst, 0, 0xff000000}};
  t.rules.push_back(r);
  EXPECT_THROW((void)make_exact_match(t), ContractViolation);
}

TableSpec lpm_table() {
  // Prefixes on ip_dst with an exact tcp_dst part, two groups.
  TableSpec t;
  t.name = "lpm";
  t.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  auto add = [&](std::uint32_t addr, unsigned plen, std::uint64_t port) {
    Rule r;
    const std::uint64_t mask =
        plen == 0 ? 0 : (kFull32 << (32 - plen)) & kFull32;
    r.priority = plen + 16;
    r.matches = {{FieldId::kIpDst, addr & mask, mask},
                 {FieldId::kTcpDst, port, kFull16}};
    t.rules.push_back(std::move(r));
  };
  add(ipv4(10, 0, 0, 0), 8, 80);
  add(ipv4(10, 1, 0, 0), 16, 80);
  add(ipv4(10, 1, 2, 0), 24, 80);
  add(0, 0, 80);  // default route in group :80
  add(ipv4(10, 1, 0, 0), 16, 443);
  // Sort by priority as compile() would.
  t.rules.stable_sort_by_priority();
  return t;
}

TEST(Lpm, LongestPrefixWinsWithinGroup) {
  const TableSpec t = lpm_table();
  const auto c = make_lpm(t);
  EXPECT_EQ(c->name(), "lpm");
  const auto reference = make_linear(t);

  const std::uint64_t probes[] = {
      ipv4(10, 1, 2, 3),    // /24 wins
      ipv4(10, 1, 9, 9),    // /16
      ipv4(10, 9, 9, 9),    // /8
      ipv4(11, 0, 0, 1),    // default /0
  };
  for (const std::uint64_t dst : probes) {
    const auto got = c->lookup(make_key(dst, 80));
    const auto want = reference->lookup(make_key(dst, 80));
    ASSERT_EQ(got.has_value(), want.has_value()) << format_ipv4(dst);
    EXPECT_EQ(*got, *want) << format_ipv4(dst);
  }
  // Group :443 has no default route → miss outside 10.1/16.
  EXPECT_TRUE(c->lookup(make_key(ipv4(10, 1, 0, 1), 443)).has_value());
  EXPECT_FALSE(c->lookup(make_key(ipv4(10, 2, 0, 1), 443)).has_value());
}

TEST(Tss, MixedMasksAndPriorities) {
  TableSpec t;
  t.name = "tss";
  t.fields = {FieldId::kIpDst, FieldId::kIpSrc};
  // Group A: exact dst, wildcard src. Group B: exact both.
  Rule wide;
  wide.priority = 32;
  wide.matches = {{FieldId::kIpDst, 5, kFull32}};
  t.rules.push_back(wide);
  Rule narrow;
  narrow.priority = 64;
  narrow.matches = {{FieldId::kIpDst, 5, kFull32},
                    {FieldId::kIpSrc, 9, kFull32}};
  t.rules.push_back(narrow);
  t.rules.stable_sort_by_priority();

  const auto c = make_tss(t);
  EXPECT_EQ(c->name(), "tss");
  // Both match: the higher-priority (narrow) rule must win.
  const auto both = c->lookup(make_key(5, 0, 9));
  ASSERT_TRUE(both.has_value());
  EXPECT_EQ(t.rules[*both].priority, 64u);
  // Only the wide rule matches.
  const auto wide_only = c->lookup(make_key(5, 0, 1));
  ASSERT_TRUE(wide_only.has_value());
  EXPECT_EQ(t.rules[*wide_only].priority, 32u);
  EXPECT_FALSE(c->lookup(make_key(6, 0, 9)).has_value());
}

TEST(Selector, PicksTemplateByProfile) {
  // ESwitch's inventory: exact-match, single-field LPM, else the linear
  // wildcard processor.
  EXPECT_EQ(select_classifier_eswitch(exact_table(4))->name(), "exact");

  TableSpec single_prefix;
  single_prefix.fields = {FieldId::kIpDst};
  for (const unsigned plen : {8u, 16u, 24u}) {
    Rule r;
    const std::uint64_t mask = (kFull32 << (32 - plen)) & kFull32;
    r.priority = plen;
    r.matches = {{FieldId::kIpDst, ipv4(10, 1, 2, 0) & mask, mask}};
    single_prefix.rules.push_back(std::move(r));
  }
  single_prefix.rules.stable_sort_by_priority();
  EXPECT_EQ(select_classifier_eswitch(single_prefix)->name(), "lpm");

  // A prefix column mixed with an exact column fits no fast template and
  // degrades to the wildcard path: Table 1's normalization gain.
  EXPECT_EQ(select_classifier_eswitch(lpm_table())->name(), "linear");

  TableSpec small_ternary;
  small_ternary.fields = {FieldId::kIpDst};
  Rule r;
  r.matches = {{FieldId::kIpDst, 0, 0x00ff00ff}};
  small_ternary.rules.push_back(r);
  EXPECT_EQ(select_classifier_eswitch(small_ternary)->name(), "linear");

  TableSpec big_ternary = small_ternary;
  for (int i = 0; i < 20; ++i) {
    Rule extra;
    extra.priority = static_cast<std::uint32_t>(i);
    extra.matches = {{FieldId::kIpDst, static_cast<std::uint64_t>(i) << 8,
                      0x00ff00ffULL}};
    big_ternary.rules.push_back(extra);
  }
  EXPECT_EQ(select_classifier_eswitch(big_ternary)->name(), "linear");
}

// Property: on random rule sets, every applicable template agrees with
// the linear reference for random probe keys.
class ClassifierAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ClassifierAgreement, TemplatesAgreeWithLinear) {
  Rng rng(GetParam());
  TableSpec t;
  t.name = "rand";
  t.fields = {FieldId::kIpDst, FieldId::kTcpDst};
  const bool prefixes = rng.chance(0.5);
  const std::size_t n = 1 + rng.index(40);
  for (std::size_t i = 0; i < n; ++i) {
    Rule r;
    const std::uint64_t dst = rng.uniform(0, 15) << 28;
    if (prefixes) {
      const unsigned plen = 4 * static_cast<unsigned>(rng.uniform(1, 8));
      const std::uint64_t mask = (kFull32 << (32 - plen)) & kFull32;
      r.matches.push_back({FieldId::kIpDst, dst & mask, mask});
      r.priority = plen;
    } else {
      r.matches.push_back({FieldId::kIpDst, dst, kFull32});
      r.priority = 32;
    }
    r.matches.push_back(
        {FieldId::kTcpDst, rng.uniform(0, 3) * 100, kFull16});
    r.priority += 16;
    t.rules.push_back(std::move(r));
  }
  t.rules.stable_sort_by_priority();

  const auto reference = make_linear(t);
  const auto specialized = t.profile() == MatchProfile::kAllExact
                               ? make_exact_match(t)
                               : make_lpm(t);
  const auto tss = make_tss(t);

  for (int probe = 0; probe < 200; ++probe) {
    const FlowKey key =
        make_key(rng.uniform(0, 15) << 28 | rng.uniform(0, 3),
                 rng.uniform(0, 3) * 100);
    const auto want = reference->lookup(key);
    const auto got = specialized->lookup(key);
    const auto got_tss = tss->lookup(key);
    ASSERT_EQ(want.has_value(), got.has_value());
    ASSERT_EQ(want.has_value(), got_tss.has_value());
    if (want.has_value()) {
      // Same priority (ties may resolve to different equal rules).
      EXPECT_EQ(t.rules[*want].priority, t.rules[*got].priority);
      EXPECT_EQ(t.rules[*want].priority, t.rules[*got_tss].priority);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Random, ClassifierAgreement,
                         ::testing::Range<std::uint64_t>(1, 33));

}  // namespace
}  // namespace maton::dp

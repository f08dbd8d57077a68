// MatchRegion, the one reading of a rule's match list: satisfiability,
// intersection, containment and the recorded conflict field must agree
// with brute force over FieldMatch::matches on every key of a small
// universe.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <span>
#include <vector>

#include "dataplane/program.hpp"
#include "util/rng.hpp"

namespace maton::dp {
namespace {

// Two fields of four bits each: 256 keys cover the universe exactly, as
// long as every mask and value stays within the low four bits.
constexpr std::array<FieldId, 2> kFields = {FieldId::kIpSrc,
                                            FieldId::kTcpDst};
constexpr std::uint64_t kBits = 4;

std::vector<FlowKey> all_keys() {
  std::vector<FlowKey> keys;
  for (std::uint64_t a = 0; a < (1u << kBits); ++a) {
    for (std::uint64_t b = 0; b < (1u << kBits); ++b) {
      FlowKey k;
      k.set(kFields[0], a);
      k.set(kFields[1], b);
      keys.push_back(k);
    }
  }
  return keys;
}

bool admits(std::span<const FieldMatch> matches, const FlowKey& key) {
  for (const FieldMatch& m : matches) {
    if (!m.matches(key)) return false;
  }
  return true;
}

/// 1–3 matches; fields repeat, and a value may carry bits its mask
/// clears.
std::vector<FieldMatch> random_matches(Rng& rng) {
  std::vector<FieldMatch> out(1 + rng.index(3));
  for (FieldMatch& m : out) {
    m.field = kFields[rng.index(kFields.size())];
    m.mask = rng.uniform(0, (1u << kBits) - 1);
    m.value = rng.uniform(0, (1u << kBits) - 1);
    if (!rng.chance(0.25)) m.value &= m.mask;
  }
  return out;
}

TEST(MatchRegion, AgreesWithBruteForceOnEveryKey) {
  const std::vector<FlowKey> keys = all_keys();
  Rng rng(20261020);
  std::size_t unsatisfiable = 0;
  std::size_t contained = 0;
  std::size_t disjoint = 0;
  for (int trial = 0; trial < 5000; ++trial) {
    const std::vector<FieldMatch> a = random_matches(rng);
    const std::vector<FieldMatch> b = random_matches(rng);
    // `a` is read from a table's match pool, `b` from the boundary type.
    FlatRules table;
    table.push_back({1, a, {}, std::nullopt});
    const MatchRegion ra = MatchRegion::of(table[0].matches);
    const MatchRegion rb = MatchRegion::of(b);
    bool a_any = false;
    bool meet = false;
    bool a_in_b = true;
    bool b_in_a = true;
    for (const FlowKey& key : keys) {
      const bool in_a = admits(a, key);
      const bool in_b = admits(b, key);
      a_any = a_any || in_a;
      meet = meet || (in_a && in_b);
      a_in_b = a_in_b && (!in_a || in_b);
      b_in_a = b_in_a && (!in_b || in_a);
    }
    ASSERT_EQ(ra.satisfiable, a_any) << "trial " << trial;
    ASSERT_EQ(ra.intersects(rb), meet) << "trial " << trial;
    ASSERT_EQ(rb.intersects(ra), meet) << "trial " << trial;
    ASSERT_EQ(rb.contains(ra), a_in_b) << "trial " << trial;
    ASSERT_EQ(ra.contains(rb), b_in_a) << "trial " << trial;
    if (!ra.satisfiable) {
      // The conflict names the match whose prefix first admits no key.
      std::size_t k = 0;
      while (k < a.size() &&
             std::any_of(keys.begin(), keys.end(), [&](const FlowKey& key) {
               return admits(std::span(a).first(k + 1), key);
             })) {
        ++k;
      }
      ASSERT_LT(k, a.size());
      EXPECT_EQ(ra.conflict, a[k].field) << "trial " << trial;
    }
    unsatisfiable += ra.satisfiable ? 0 : 1;
    contained += a_in_b && a_any && !b_in_a ? 1 : 0;
    disjoint += meet ? 0 : 1;
  }
  // The draw reaches every case it checks.
  EXPECT_GT(unsatisfiable, 100u);
  EXPECT_GT(contained, 100u);
  EXPECT_GT(disjoint, 100u);
}

}  // namespace
}  // namespace maton::dp

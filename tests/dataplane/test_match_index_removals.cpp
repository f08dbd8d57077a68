// dp::FlatRules' match index under removals: its slots keep the positions
// of the index's last build and read them through a util::BuildPositions
// removal map, so a removal run records the erased positions instead of
// renumbering every slot. Random interleavings of removal runs, replace,
// push_back, insert and reposition on tables of several thousand rules
// must keep find_by_match equal to a linear scan after every step, with
// and without duplicate match vectors; and the index must be rebuilt
// exactly when the removed share passes a quarter of the built rules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "dataplane/program.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace maton::dp {
namespace {

/// A match vector as flat words, for the reference scan's map.
std::vector<std::uint64_t> words_of(const MatchRange& matches) {
  std::vector<std::uint64_t> words;
  for (const FieldMatch m : matches) {
    words.push_back(field_index(m.field));
    words.push_back(m.value);
    words.push_back(m.mask);
  }
  return words;
}

struct WordsHash {
  std::size_t operator()(const std::vector<std::uint64_t>& w) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (const std::uint64_t x : w) {
      h ^= x;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Draws rules over (ip_dst, tcp_dst). Without duplicates every match
/// vector is fresh; with them, some rules copy a live rule's vector.
class RuleSource {
 public:
  RuleSource(std::uint64_t seed, bool duplicates)
      : rng_(seed), duplicates_(duplicates) {}

  Rule next(const FlatRules& live, std::uint32_t priority) {
    Rule rule;
    rule.priority = priority;
    if (duplicates_ && !live.empty() && rng_.chance(0.05)) {
      rule.matches = live[rng_.index(live.size())].matches;
    } else {
      const std::uint64_t id = next_id_++;
      rule.matches.push_back({FieldId::kIpDst, 0x0a000000u + id, 0xffffffffu});
      if (rng_.chance(0.5)) {
        rule.matches.push_back({FieldId::kTcpDst, id % 65536, 0xffffu});
      }
    }
    rule.actions.push_back(
        {Action::Kind::kOutput, FieldId::kMeta0, rng_.uniform(1, 64)});
    return rule;
  }

  std::uint32_t priority() {
    return static_cast<std::uint32_t>(rng_.uniform(0, 40));
  }

  Rng& rng() { return rng_; }

 private:
  Rng rng_;
  bool duplicates_;
  std::uint64_t next_id_ = 1;
};

/// find_by_match equals a linear scan (the first rule with the vector)
/// for the vector of every `stride`-th rule, and misses a vector no rule
/// holds. (With duplicate vectors each lookup is itself a scan, so those
/// tables are checked at a stride.)
void expect_index_matches_scan(const FlatRules& rules,
                               std::size_t stride = 1) {
  std::unordered_map<std::vector<std::uint64_t>, std::size_t, WordsHash> first;
  for (std::size_t i = 0; i < rules.size(); ++i) {
    first.try_emplace(words_of(rules[i].matches), i);
  }
  for (std::size_t i = 0; i < rules.size(); i += stride) {
    const MatchList target = rules[i].matches;
    ASSERT_EQ(rules.find_by_match(target),
              first.at(words_of(rules[i].matches)))
        << "rule " << i << " of " << rules.size();
  }
  const std::vector<FieldMatch> absent{{FieldId::kIpDst, 0x7f000001u,
                                        0xffffffffu}};
  ASSERT_EQ(rules.find_by_match(absent), FlatRules::kNpos);
}

/// Ascending distinct positions of a removal run of `k` rules.
std::vector<std::size_t> removal_run(Rng& rng, std::size_t n,
                                     std::size_t k) {
  std::vector<std::size_t> positions;
  while (positions.size() < k) {
    const std::size_t p = rng.index(n);
    if (std::find(positions.begin(), positions.end(), p) == positions.end()) {
      positions.push_back(p);
    }
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

class MatchIndexRemovals : public ::testing::TestWithParam<bool> {};

TEST_P(MatchIndexRemovals, FindByMatchEqualsALinearScanAfterEveryStep) {
  const bool duplicates = GetParam();
  RuleSource source(duplicates ? 0xd0b1e : 0x51e9, duplicates);
  FlatRules rules;
  for (std::size_t i = 0; i < 6000; ++i) {
    rules.push_back(source.next(rules, source.priority()));
  }
  rules.stable_sort_by_priority();
  rules.build_match_index();
  Rng& rng = source.rng();

  for (int step = 0; step < 400; ++step) {
    // Long stretches without inserts or re-positions let the removal
    // map accumulate past its quarter share and rebuild.
    const bool structural = step % 200 >= 150;
    const std::uint64_t roll = rng.uniform(0, 99);
    const std::size_t n = rules.size();
    if (roll < 40 && n > 4000) {
      rules.erase(removal_run(rng, n, 1 + rng.index(64)));
    } else if (roll < 65) {
      // A same-priority modify: the rule keeps its position.
      const std::size_t pos = rng.index(n);
      rules.replace(pos, source.next(rules, rules.priority_of(pos)));
    } else if (roll < 85 || !structural) {
      // An append after every survivor, at the lowest priority so the
      // table stays in compiled order.
      rules.push_back(source.next(rules, 0));
    } else if (roll < 93) {
      (void)rules.insert_sorted(source.next(rules, source.priority()));
    } else {
      const std::size_t pos = rng.index(n);
      rules.replace(pos, source.next(rules, source.priority()));
      (void)rules.reposition(pos);
    }
    ASSERT_NO_FATAL_FAILURE(
        expect_index_matches_scan(rules, duplicates ? 61 + step % 97 : 1))
        << "step " << step << (duplicates ? " (duplicates)" : "");
  }
}

INSTANTIATE_TEST_SUITE_P(Duplicates, MatchIndexRemovals,
                         ::testing::Bool());

TEST(MatchIndexRemovals, RebuildsExactlyOnceWhenTheQuarterShareIsCrossed) {
  RuleSource source(0x9a7e, /*duplicates=*/false);
  FlatRules rules;
  constexpr std::size_t kRules = 8000;
  for (std::size_t i = 0; i < kRules; ++i) {
    rules.push_back(source.next(rules, 0));
  }
  rules.build_match_index();
  obs::Counter& builds = obs::MetricRegistry::global().counter(
      "maton_dp_match_index_builds_total");
  const std::uint64_t builds0 = builds.total();
  Rng& rng = source.rng();

  // Up to a quarter of the built rules go in runs of 40, mixed with
  // same-position modifies and appends (which add built rules, so they
  // raise the share's bound by one each).
  std::size_t removed = 0;
  std::size_t built = kRules;
  while ((removed + 40) * 4 <= built) {
    rules.erase(removal_run(rng, rules.size(), 40));
    removed += 40;
    const std::size_t pos = rng.index(rules.size());
    rules.replace(pos, source.next(rules, 0));
    rules.push_back(source.next(rules, 0));
    ++built;
    ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(rules));
  }
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(builds.total(), builds0) << "rebuilt before the share";
  }
  ASSERT_GT(removed * 4, built - 200) << "the loop stopped short";

  // The run that crosses the share marks the index stale; the next
  // lookups rebuild it once.
  std::vector<std::size_t> run;
  for (std::size_t p = 0; p < 40; ++p) run.push_back(3 * p);
  rules.erase(run);
  ASSERT_NO_FATAL_FAILURE(expect_index_matches_scan(rules));
  if constexpr (obs::kEnabled) {
    EXPECT_EQ(builds.total(), builds0 + 1);
  }
}

}  // namespace
}  // namespace maton::dp

// Tests for detail::MaskedGroup, the flat open-addressed group behind
// the TSS and linear batch indexes. The model test runs random insert /
// erase / replace_values steps, with forced full-hash collisions,
// against a std::map model of the group's semantics: after every step
// each pool key's find() must match the model, and the chunked batch
// probe (detail::probe_groups_batch) must match scalar find() on both
// SIMD dispatch levels. A long churn on one colliding probe run must
// leave the table's capacity alone.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/classifier_detail.hpp"
#include "dataplane/simd.hpp"
#include "util/contract.hpp"
#include "util/rng.hpp"

namespace maton::dp {
namespace {

using Words = std::vector<std::uint64_t>;
using detail::MaskedGroup;

/// FNV-1a state after folding `w0` as the first word.
[[nodiscard]] std::uint64_t fnv_state(std::uint64_t w0) {
  return (1469598103934665603ULL ^ w0) * 1099511628211ULL;
}

/// Vectors whose FNV-1a hashes collide: after the first word the hash
/// state is s(w0) = (basis ^ w0) * prime, so w1 = s(a0) ^ a1 ^ s(w0)
/// lands (w0, w1) on the same hash as (a0, a1) = (1, 2). Words appended
/// after the pair keep the collision, so every such key of one width
/// shares one full 64-bit hash.
[[nodiscard]] Words colliding(std::uint64_t w0, std::size_t width = 2) {
  Words key{w0, fnv_state(1) ^ 2 ^ fnv_state(w0)};
  key.resize(width, 3);
  return key;
}

/// The group's semantics, written without the group's code: the first
/// insert of a masked value wins, a dropped duplicate freezes erases,
/// and the probe-order bounds only ever widen.
struct Model {
  std::map<Words, MaskedGroup::Entry> entries;
  std::uint32_t best_priority = 0;
  std::size_t min_rule = MaskedGroup::kNone;
  bool dropped_duplicate = false;

  void insert(const Words& key, std::size_t rule, std::uint32_t priority) {
    best_priority = std::max(best_priority, priority);
    min_rule = std::min(min_rule, rule);
    if (!entries.try_emplace(key, MaskedGroup::Entry{rule, priority})
             .second) {
      dropped_duplicate = true;
    }
  }

  [[nodiscard]] bool erase(const Words& key, std::size_t rule) {
    if (dropped_duplicate) return false;
    const auto it = entries.find(key);
    if (it == entries.end() || it->second.rule != rule) return false;
    entries.erase(it);
    return true;
  }

  [[nodiscard]] bool replace(const Words& from, const Words& to,
                             std::size_t rule, std::uint32_t priority) {
    if (from == to) return true;
    if (entries.contains(to) || !erase(from, rule)) return false;
    insert(to, rule, priority);
    return true;
  }
};

struct Config {
  std::vector<FieldId> fields;
  Words masks;
};

[[nodiscard]] std::vector<Config> configs() {
  const std::uint64_t full = ~std::uint64_t{0};
  return {
      {{FieldId::kEthSrc, FieldId::kEthDst}, {full, full}},
      // Partial mask on the third word: the batch probe masks the key's
      // noise bits away, the model holds masked words.
      {{FieldId::kEthSrc, FieldId::kEthDst, FieldId::kIpSrc},
       {full, full, 0xFF}},
  };
}

/// Pool keys (already masked): colliding ones share one hash, the
/// others draw small words so random inserts hit existing keys.
[[nodiscard]] std::vector<Words> key_pool(const Config& config, Rng& rng) {
  const std::size_t nf = config.masks.size();
  std::vector<Words> pool;
  for (std::uint64_t w0 = 0; w0 < 24; ++w0) {
    pool.push_back(colliding(1000 + w0, nf));
  }
  while (pool.size() < 80) {
    Words key(nf);
    for (std::size_t f = 0; f < nf; ++f) {
      key[f] = rng.index(16) & config.masks[f];
    }
    if (std::find(pool.begin(), pool.end(), key) == pool.end()) {
      pool.push_back(key);
    }
  }
  return pool;
}

[[nodiscard]] std::vector<std::size_t> batch_probe(
    const MaskedGroup& group, const Config& config,
    const std::vector<FlowKey>& keys) {
  std::vector<std::size_t> out(keys.size());
  detail::probe_groups_batch(
      keys, config.fields, std::span<const MaskedGroup>(&group, 1), out,
      [](const MaskedGroup& g, const detail::ProbeBest& best) {
        return best.rule < g.min_rule;
      },
      [](const MaskedGroup::Entry& e, const detail::ProbeBest& best) {
        return e.rule < best.rule;
      });
  return out;
}

void expect_matches_model(const MaskedGroup& group, const Model& model,
                          const Config& config, const std::vector<Words>& pool,
                          const std::vector<FlowKey>& flow_keys, int step) {
  ASSERT_EQ(group.size(), model.entries.size()) << "step " << step;
  ASSERT_EQ(group.best_priority, model.best_priority) << "step " << step;
  ASSERT_EQ(group.min_rule, model.min_rule) << "step " << step;
  ASSERT_EQ(group.dropped_duplicate, model.dropped_duplicate)
      << "step " << step;
  ASSERT_LE(group.size() * 2, group.capacity()) << "step " << step;
  std::vector<std::size_t> scalar(pool.size(), kNoRule);
  for (std::size_t k = 0; k < pool.size(); ++k) {
    const std::optional<MaskedGroup::Entry> got = group.find(pool[k]);
    const auto it = model.entries.find(pool[k]);
    ASSERT_EQ(got.has_value(), it != model.entries.end())
        << "step " << step << " key " << k;
    if (!got.has_value()) continue;
    ASSERT_EQ(got->rule, it->second.rule) << "step " << step << " key " << k;
    ASSERT_EQ(got->priority, it->second.priority)
        << "step " << step << " key " << k;
    scalar[k] = got->rule;
  }
  const auto check_level = [&](const char* level) {
    const std::vector<std::size_t> batched =
        batch_probe(group, config, flow_keys);
    for (std::size_t k = 0; k < pool.size(); ++k) {
      ASSERT_EQ(batched[k], scalar[k])
          << level << " step " << step << " key " << k;
    }
  };
  simd::reset_dispatch();
  check_level("dispatched");
  ASSERT_TRUE(simd::force_dispatch(simd::Level::kScalar));
  check_level("scalar");
  simd::reset_dispatch();
}

TEST(MaskedGroupModel, RandomRunsMatchAMapModelAndTheBatchProbe) {
  Rng rng(2600);
  for (const Config& config : configs()) {
    const std::size_t nf = config.masks.size();
    const std::vector<Words> pool = key_pool(config, rng);
    ASSERT_EQ(detail::hash_words(pool[0]), detail::hash_words(pool[1]));
    // Batch probe keys: the pool keys, unmasked bits set to noise.
    std::vector<FlowKey> flow_keys;
    for (const Words& key : pool) {
      FlowKey fk;
      for (std::size_t f = 0; f < nf; ++f) {
        const std::uint64_t noise = rng.uniform(0, ~std::uint64_t{0});
        fk.set(config.fields[f], key[f] | (noise & ~config.masks[f]));
      }
      flow_keys.push_back(fk);
    }
    std::size_t next_rule = 0;
    for (int epoch = 0; epoch < 24; ++epoch) {
      MaskedGroup group;
      group.masks = config.masks;
      Model model;
      // Odd epochs never insert a present key, so erases and replaces
      // stay live; even ones drop duplicates and must then decline.
      const bool allow_duplicates = epoch % 2 == 0;
      for (int step = 0; step < 300; ++step) {
        const Words& key = pool[rng.index(pool.size())];
        const std::uint32_t priority =
            rng.chance(0.05) ? 0xFFFFFFFFu
                             : static_cast<std::uint32_t>(rng.index(8));
        // Erases and replaces name mostly the rule that owns `key`,
        // sometimes another one.
        const auto it = model.entries.find(key);
        const bool present = it != model.entries.end();
        std::size_t rule =
            present ? it->second.rule : rng.index(next_rule + 1);
        if (rng.chance(0.15)) rule += 1;
        const std::size_t op = rng.index(10);
        if (op < 4) {
          if (!allow_duplicates && present) continue;
          group.insert(key, next_rule, priority);
          model.insert(key, next_rule, priority);
          ++next_rule;
        } else if (op < 7) {
          ASSERT_EQ(group.erase(key, rule), model.erase(key, rule))
              << "epoch " << epoch << " step " << step;
        } else {
          const Words& to =
              rng.chance(0.1) ? key : pool[rng.index(pool.size())];
          const std::uint32_t kept = present ? it->second.priority : priority;
          const std::size_t capacity = group.capacity();
          const bool replaced = group.replace_values(key, to, rule, kept);
          ASSERT_EQ(replaced, model.replace(key, to, rule, kept))
              << "epoch " << epoch << " step " << step;
          ASSERT_EQ(group.capacity(), capacity)
              << "a patched modify rehashed at epoch " << epoch << " step "
              << step;
        }
        expect_matches_model(group, model, config, pool, flow_keys, step);
        if (testing::Test::HasFatalFailure()) return;
      }
      // Drain what is left: erases alone must empty the group.
      if (!model.dropped_duplicate) {
        for (const auto& [key, entry] : Model(model).entries) {
          ASSERT_TRUE(group.erase(key, entry.rule));
          ASSERT_TRUE(model.erase(key, entry.rule));
        }
        expect_matches_model(group, model, config, pool, flow_keys, -1);
        if (testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(MaskedGroupSpill, FreeListBoundsChainGarbage) {
  ASSERT_EQ(detail::hash_words(colliding(5)),
            detail::hash_words(Words{1, 2}));

  MaskedGroup group;
  group.masks = {~std::uint64_t{0}, ~std::uint64_t{0}};
  constexpr std::size_t kChain = 6;
  std::vector<std::uint64_t> word(kChain);
  for (std::size_t r = 0; r < kChain; ++r) {
    word[r] = 1000 + r;
    group.insert(colliding(word[r]), r, 1);
  }
  // One probe run from one home slot; the table never grows past this.
  const std::size_t capacity = group.capacity();

  Rng rng(77);
  std::uint64_t next_word = 5000;
  for (int cycle = 0; cycle < 10000; ++cycle) {
    const std::size_t r = rng.index(kChain);
    if (cycle % 2 == 0) {
      ASSERT_TRUE(group.replace_values(colliding(word[r]),
                                       colliding(next_word), r, 1));
    } else {
      ASSERT_TRUE(group.erase(colliding(word[r]), r));
      group.insert(colliding(next_word), r, 1);
    }
    word[r] = next_word++;
    ASSERT_EQ(group.capacity(), capacity) << "cycle " << cycle;
  }
  for (std::size_t r = 0; r < kChain; ++r) {
    const auto e = group.find(colliding(word[r]));
    ASSERT_TRUE(e.has_value());
    EXPECT_EQ(e->rule, r);
  }
}

TEST(MaskedGroupModel, DuplicateDropAndDeclines) {
  MaskedGroup group;
  group.masks = {~std::uint64_t{0}, ~std::uint64_t{0}};
  const Words a = colliding(7);
  const Words b = colliding(8);
  const Words c{1, 2};  // same hash as a and b
  group.insert(a, 3, 5);
  group.insert(b, 4, 6);
  // The new key is present: replace declines and changes nothing.
  EXPECT_FALSE(group.replace_values(a, b, 3, 5));
  // The slot belongs to another rule: erase and replace decline.
  EXPECT_FALSE(group.erase(a, 4));
  EXPECT_FALSE(group.replace_values(a, c, 4, 5));
  EXPECT_FALSE(group.erase(c, 3));  // absent key
  EXPECT_TRUE(group.replace_values(a, a, 3, 5));  // action-only modify
  ASSERT_TRUE(group.find(a).has_value());
  EXPECT_EQ(group.find(a)->rule, 3u);
  EXPECT_EQ(group.find(b)->rule, 4u);
  EXPECT_FALSE(group.find(c).has_value());

  // A duplicate is dropped, the first insert keeps the key, and every
  // later erase or replace declines.
  group.insert(a, 9, 7);
  EXPECT_TRUE(group.dropped_duplicate);
  EXPECT_EQ(group.size(), 2u);
  EXPECT_EQ(group.find(a)->rule, 3u);
  EXPECT_EQ(group.find(a)->priority, 5u);
  EXPECT_EQ(group.best_priority, 7u);  // the bounds still widen
  EXPECT_EQ(group.min_rule, 3u);
  EXPECT_FALSE(group.erase(a, 3));
  EXPECT_FALSE(group.replace_values(b, c, 4, 6));
  EXPECT_EQ(group.find(b)->rule, 4u);
}

TEST(MaskedGroupModel, RulesMustFitTheMetaWord) {
  MaskedGroup group;
  group.masks = {~std::uint64_t{0}};
  const Words key{1};
  group.insert(key, 0xFFFFFFFEu, 0xFFFFFFFFu);
  EXPECT_EQ(group.find(key)->rule, 0xFFFFFFFEu);
  EXPECT_EQ(group.find(key)->priority, 0xFFFFFFFFu);
  EXPECT_THROW(group.insert(Words{2}, 0xFFFFFFFFu, 0), ContractViolation);
}

}  // namespace
}  // namespace maton::dp

// Randomized differential tests for the dp::simd kernel layer: every
// kernel must be bit-identical to its scalar reference on both the
// dispatch-selected level and the forced-scalar level — random masks
// and values across field widths, including all-zero masks, full-width
// masks, ragged tails, and valid-bit edge cases (unset fields carry
// zero values into the lanes, exactly like the scalar probes).
#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/classifier_detail.hpp"
#include "dataplane/simd.hpp"
#include "util/rng.hpp"

namespace maton::dp {
namespace {

using detail::kBatchChunk;

/// Runs `body` once per dispatch level under test: the startup-resolved
/// level (AVX2 where the host supports it) and forced scalar. Restores
/// the startup dispatch afterwards.
template <typename Body>
void on_both_dispatch_levels(Body&& body) {
  simd::reset_dispatch();
  body(simd::active_level());
  ASSERT_TRUE(simd::force_dispatch(simd::Level::kScalar));
  body(simd::Level::kScalar);
  simd::reset_dispatch();
}

/// Reference semantics, written against detail::hash_words so the test
/// does not share code with the kernels it checks.
void reference_mask_hash(const std::uint64_t* lanes, std::size_t stride,
                         const std::uint64_t* masks, std::size_t fields,
                         std::size_t n, std::uint64_t* masked,
                         std::uint64_t* hashes) {
  std::vector<std::uint64_t> word(fields);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < fields; ++f) {
      word[f] = lanes[f * stride + i] & masks[f];
      masked[f * stride + i] = word[f];
    }
    hashes[i] = detail::hash_words(word);
  }
}

/// Random lane words spanning the interesting widths: small values,
/// full-64-bit patterns, zeros.
[[nodiscard]] std::uint64_t random_word(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return 0;
    case 1:
      return rng.uniform(0, 0xff);
    case 2:
      return rng.uniform(0, 0xffffffffULL);
    default:
      return rng.uniform(0, ~std::uint64_t{0});
  }
}

/// Random mask including the edge shapes: all-zero (wildcard), full
/// width for each FieldId's wire width, full 64-bit, and arbitrary.
[[nodiscard]] std::uint64_t random_mask(Rng& rng) {
  switch (rng.index(4)) {
    case 0:
      return 0;
    case 1:
      return field_full_mask(
          static_cast<FieldId>(rng.index(kNumFields)));
    case 2:
      return ~std::uint64_t{0};
    default:
      return rng.uniform(0, ~std::uint64_t{0});
  }
}

TEST(SimdKernels, MaskHashLanesMatchesReferenceOnBothLevels) {
  Rng rng(9001);
  for (int round = 0; round < 50; ++round) {
    const std::size_t fields = rng.index(kNumFields + 1);  // incl. 0
    const std::size_t n = 1 + rng.index(kBatchChunk);      // ragged tails
    detail::LaneBlock lanes;
    std::vector<std::uint64_t> masks(fields);
    for (std::size_t f = 0; f < fields; ++f) {
      masks[f] = random_mask(rng);
      for (std::size_t i = 0; i < n; ++i) {
        lanes.data()[f * kBatchChunk + i] = random_word(rng);
      }
    }
    detail::LaneBlock want_masked;
    std::array<std::uint64_t, kBatchChunk> want_hashes{};
    reference_mask_hash(lanes.data(), kBatchChunk, masks.data(), fields, n,
                        want_masked.data(), want_hashes.data());

    on_both_dispatch_levels([&](simd::Level level) {
      detail::LaneBlock masked;
      std::array<std::uint64_t, kBatchChunk> hashes{};
      simd::mask_hash_lanes(lanes.data(), kBatchChunk, masks.data(),
                            fields, n, masked.data(), hashes.data());
      for (std::size_t i = 0; i < n; ++i) {
        ASSERT_EQ(want_hashes[i], hashes[i])
            << "level " << static_cast<int>(level) << " key " << i;
        for (std::size_t f = 0; f < fields; ++f) {
          ASSERT_EQ(want_masked.data()[f * kBatchChunk + i],
                    masked.data()[f * kBatchChunk + i])
              << "level " << static_cast<int>(level) << " key " << i
              << " field " << f;
        }
      }
    });
  }
}

TEST(SimdKernels, EqualLanesComparesStridedWords) {
  Rng rng(9004);
  for (int round = 0; round < 100; ++round) {
    const std::size_t fields = 1 + rng.index(kNumFields);
    detail::LaneBlock lanes;
    const std::size_t i = rng.index(kBatchChunk);
    std::vector<std::uint64_t> entry(fields);
    for (std::size_t f = 0; f < fields; ++f) {
      entry[f] = random_word(rng);
      lanes.data()[f * kBatchChunk + i] = entry[f];
    }
    ASSERT_TRUE(simd::equal_lanes(entry.data(), lanes.data() + i,
                                  kBatchChunk, fields));
    // Flip one word: must mismatch.
    const std::size_t flip = rng.index(fields);
    lanes.data()[flip * kBatchChunk + i] ^= 1;
    ASSERT_FALSE(simd::equal_lanes(entry.data(), lanes.data() + i,
                                   kBatchChunk, fields));
    lanes.data()[flip * kBatchChunk + i] ^= 1;
  }
}

TEST(SimdKernels, DispatchOverrideRoundTrips) {
  ASSERT_TRUE(simd::force_dispatch(simd::Level::kScalar));
  EXPECT_EQ(simd::Level::kScalar, simd::active_level());
  const bool forced = simd::force_dispatch(simd::Level::kAvx2);
  EXPECT_EQ(forced, simd::avx2_supported());
  EXPECT_EQ(forced ? simd::Level::kAvx2 : simd::Level::kScalar,
            simd::active_level());
  simd::reset_dispatch();
}

// --- classifier-level differential on both dispatch paths ------------

constexpr FieldId kFields[] = {FieldId::kIpSrc, FieldId::kIpDst,
                               FieldId::kTcpDst, FieldId::kEthSrc};

[[nodiscard]] TableSpec random_ternary_table(std::size_t rules, Rng& rng) {
  TableSpec spec;
  spec.name = "t";
  spec.fields.assign(std::begin(kFields), std::end(kFields));
  for (std::size_t r = 0; r < rules; ++r) {
    Rule rule;
    rule.priority = static_cast<std::uint32_t>(rng.uniform(0, 7));
    for (const FieldId f : kFields) {
      FieldMatch m;
      m.field = f;
      // All-zero and full-width masks included via random_mask's edge
      // shapes, clipped to the field's wire width like real rules.
      m.mask = random_mask(rng) & field_full_mask(f);
      m.value = rng.uniform(0, field_full_mask(f)) & m.mask;
      rule.matches.push_back(m);
    }
    rule.actions.push_back(
        {Action::Kind::kOutput, FieldId::kMeta0, rng.uniform(1, 8)});
    spec.rules.push_back(rule);
  }
  spec.rules.stable_sort_by_priority();
  return spec;
}

[[nodiscard]] TableSpec random_exact_table(std::size_t rules, Rng& rng) {
  TableSpec spec;
  spec.name = "t";
  spec.fields.assign(std::begin(kFields), std::end(kFields));
  for (std::size_t r = 0; r < rules; ++r) {
    Rule rule;
    rule.priority = static_cast<std::uint32_t>(rng.uniform(0, 7));
    for (const FieldId f : kFields) {
      rule.matches.push_back(
          {f, rng.uniform(0, 15), field_full_mask(f)});
    }
    rule.actions.push_back(
        {Action::Kind::kOutput, FieldId::kMeta0, rng.uniform(1, 8)});
    spec.rules.push_back(rule);
  }
  spec.rules.stable_sort_by_priority();
  return spec;
}

/// Probe keys with valid-bit edge cases: some keys set only a subset of
/// the fields (unset fields keep value zero and a clear valid bit, the
/// state the kernels must treat exactly like the scalar path).
[[nodiscard]] std::vector<FlowKey> random_probe_keys(std::size_t count,
                                                     Rng& rng) {
  std::vector<FlowKey> keys;
  keys.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    FlowKey key;
    const bool miss_heavy = rng.chance(0.4);
    for (const FieldId f : kFields) {
      if (rng.chance(0.15)) continue;  // leave the field unset
      key.set(f, miss_heavy ? rng.uniform(1 << 20, 1 << 24)
                            : rng.uniform(0, 15));
    }
    keys.push_back(key);
  }
  return keys;
}

void expect_batch_matches_scalar(const Classifier& classifier,
                                 const std::vector<FlowKey>& keys) {
  std::vector<std::size_t> batched(keys.size(), 0);
  classifier.lookup_batch(keys, batched);
  for (std::size_t i = 0; i < keys.size(); ++i) {
    const auto want = classifier.lookup(keys[i]);
    const std::size_t scalar = want.has_value() ? *want : kNoRule;
    ASSERT_EQ(scalar, batched[i])
        << classifier.name() << " diverges at key " << i;
  }
}

TEST(SimdClassifierDifferential, TssBitIdenticalOnBothLevels) {
  Rng rng(9100);
  for (int round = 0; round < 12; ++round) {
    const auto table = random_ternary_table(1 + rng.index(64), rng);
    const auto classifier = make_tss(table);
    const auto keys = random_probe_keys(200, rng);
    on_both_dispatch_levels(
        [&](simd::Level) { expect_batch_matches_scalar(*classifier, keys); });
  }
}

TEST(SimdClassifierDifferential, MaskedGroupLinearBitIdenticalOnBothLevels) {
  Rng rng(9200);
  for (int round = 0; round < 12; ++round) {
    // > kScanThreshold rules so the masked-group batch index is used.
    const auto table = random_ternary_table(9 + rng.index(56), rng);
    const auto classifier = make_linear(table);
    const auto keys = random_probe_keys(200, rng);
    on_both_dispatch_levels(
        [&](simd::Level) { expect_batch_matches_scalar(*classifier, keys); });
  }
}

TEST(SimdClassifierDifferential, ExactMatchBitIdenticalOnBothLevels) {
  Rng rng(9300);
  for (int round = 0; round < 12; ++round) {
    const auto table = random_exact_table(1 + rng.index(64), rng);
    const auto classifier = make_exact_match(table);
    // Exact tables ignore valid bits the same way scalar lookup does;
    // keys still include unset fields.
    const auto keys = random_probe_keys(200, rng);
    on_both_dispatch_levels(
        [&](simd::Level) { expect_batch_matches_scalar(*classifier, keys); });
  }
}

}  // namespace
}  // namespace maton::dp

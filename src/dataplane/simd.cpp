#include "dataplane/simd.hpp"

#include <atomic>
#include <cstdlib>
#include <cstring>

// The AVX2 kernels are compiled per-function via the `target` attribute
// so the translation unit builds without -mavx2 and the binary still
// runs on hosts without AVX2 (the scalar path is taken there).
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MATON_SIMD_AVX2_KERNELS 1
#include <immintrin.h>
#else
#define MATON_SIMD_AVX2_KERNELS 0
#endif

namespace maton::dp::simd {

namespace {

constexpr std::uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr std::uint64_t kFnvPrime = 1099511628211ULL;

// ---- Scalar reference ----------------------------------------------------

void mask_hash_lanes_scalar(const std::uint64_t* lanes, std::size_t stride,
                            const std::uint64_t* masks, std::size_t fields,
                            std::size_t n, std::uint64_t* masked,
                            std::uint64_t* hashes) {
  for (std::size_t i = 0; i < n; ++i) hashes[i] = kFnvOffset;
  for (std::size_t f = 0; f < fields; ++f) {
    const std::uint64_t m = masks[f];
    const std::uint64_t* src = lanes + f * stride;
    std::uint64_t* dst = masked + f * stride;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t w = src[i] & m;
      dst[i] = w;
      hashes[i] = (hashes[i] ^ w) * kFnvPrime;
    }
  }
}

// ---- AVX2 ----------------------------------------------------------------

#if MATON_SIMD_AVX2_KERNELS

/// Exact 64x64-bit multiply mod 2^64 from 32-bit partial products:
/// a*b = a_lo*b_lo + ((a_hi*b_lo + a_lo*b_hi) << 32)   (mod 2^64).
__attribute__((target("avx2"))) inline __m256i mul64(__m256i a, __m256i b) {
  const __m256i lo = _mm256_mul_epu32(a, b);
  const __m256i hi = _mm256_add_epi64(
      _mm256_mul_epu32(_mm256_srli_epi64(a, 32), b),
      _mm256_mul_epu32(a, _mm256_srli_epi64(b, 32)));
  return _mm256_add_epi64(lo, _mm256_slli_epi64(hi, 32));
}

__attribute__((target("avx2"))) void mask_hash_lanes_avx2(
    const std::uint64_t* lanes, std::size_t stride,
    const std::uint64_t* masks, std::size_t fields, std::size_t n,
    std::uint64_t* masked, std::uint64_t* hashes) {
  const __m256i offset =
      _mm256_set1_epi64x(static_cast<long long>(kFnvOffset));
  const __m256i prime =
      _mm256_set1_epi64x(static_cast<long long>(kFnvPrime));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i h = offset;
    for (std::size_t f = 0; f < fields; ++f) {
      const __m256i m = _mm256_set1_epi64x(
          static_cast<long long>(masks[f]));
      const __m256i w = _mm256_and_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(lanes + f * stride + i)),
          m);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(masked + f * stride + i), w);
      h = mul64(_mm256_xor_si256(h, w), prime);
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(hashes + i), h);
  }
  if (i < n) {
    mask_hash_lanes_scalar(lanes + i, stride, masks, fields, n - i,
                           masked + i, hashes + i);
  }
}

[[nodiscard]] bool cpu_has_avx2() noexcept {
  return __builtin_cpu_supports("avx2") != 0;
}

#else  // !MATON_SIMD_AVX2_KERNELS

[[nodiscard]] bool cpu_has_avx2() noexcept { return false; }

#endif

[[nodiscard]] Level resolve_startup_level() noexcept {
  if (const char* env = std::getenv("MATON_SIMD")) {
    if (std::strcmp(env, "scalar") == 0 || std::strcmp(env, "off") == 0) {
      return Level::kScalar;
    }
  }
  return cpu_has_avx2() ? Level::kAvx2 : Level::kScalar;
}

std::atomic<Level>& level_slot() noexcept {
  static std::atomic<Level> level{resolve_startup_level()};
  return level;
}

}  // namespace

Level active_level() noexcept {
  return level_slot().load(std::memory_order_relaxed);
}

bool avx2_supported() noexcept { return cpu_has_avx2(); }

bool force_dispatch(Level level) noexcept {
  if (level == Level::kAvx2 && !cpu_has_avx2()) {
    level_slot().store(Level::kScalar, std::memory_order_relaxed);
    return false;
  }
  level_slot().store(level, std::memory_order_relaxed);
  return true;
}

void reset_dispatch() noexcept {
  level_slot().store(resolve_startup_level(), std::memory_order_relaxed);
}

void mask_hash_lanes(const std::uint64_t* lanes, std::size_t stride,
                     const std::uint64_t* masks, std::size_t fields,
                     std::size_t n, std::uint64_t* masked,
                     std::uint64_t* hashes) {
#if MATON_SIMD_AVX2_KERNELS
  if (active_level() == Level::kAvx2) {
    mask_hash_lanes_avx2(lanes, stride, masks, fields, n, masked, hashes);
    return;
  }
#endif
  mask_hash_lanes_scalar(lanes, stride, masks, fields, n, masked, hashes);
}

bool equal_lanes(const std::uint64_t* entry, const std::uint64_t* lanes,
                 std::size_t stride, std::size_t fields) noexcept {
  // Strided gather: one word per field row. Entry vectors are short
  // (<= kNumFields) and mismatches show up early, so a scalar
  // short-circuit loop beats gathering into a vector register on every
  // level; keeping one body also keeps both dispatch paths bit-equal by
  // construction.
  for (std::size_t f = 0; f < fields; ++f) {
    if (entry[f] != lanes[f * stride]) return false;
  }
  return true;
}

}  // namespace maton::dp::simd

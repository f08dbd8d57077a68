// Word-parallel batch kernels for the classifier hot paths.
//
// The batch classifiers transpose each chunk of keys into a
// structure-of-arrays (SoA) "lane" layout: word `f` of key `i` lives at
// `lanes[f * stride + i]`, so one field's words for the whole chunk are
// contiguous. The kernels below mask, hash, and compare across that
// layout four keys at a time under AVX2, with a portable scalar
// fallback that is the semantic reference.
//
// Dispatch contract (DESIGN.md §14):
//   - Every kernel is bit-identical across levels. The hash is exactly
//     detail::hash_words (FNV-1a, sequential fold per key); AVX2 runs
//     the same fold on four independent keys using an exact 64x64-bit
//     multiply mod 2^64 built from 32-bit partial products.
//   - The active level is resolved once at startup: AVX2 when the CPU
//     reports it (and the build can emit it), else scalar. MATON_SIMD
//     in the environment ("scalar"/"off") pins the scalar path.
//   - force_dispatch() overrides the level for tests and microbenches.
//     It is not synchronized against concurrently running kernels; call
//     it only from single-threaded setup code.
#pragma once

#include <cstddef>
#include <cstdint>

namespace maton::dp::simd {

enum class Level : std::uint8_t {
  kScalar = 0,
  kAvx2 = 1,
};

/// Level the kernels currently run at.
[[nodiscard]] Level active_level() noexcept;

/// True when the host CPU (and compiler) can run the AVX2 kernels.
[[nodiscard]] bool avx2_supported() noexcept;

/// Pins the dispatch level (tests/benches only; see header comment).
/// Forcing kAvx2 on a host without AVX2 support keeps scalar and
/// returns false.
bool force_dispatch(Level level) noexcept;

/// Restores the startup-resolved dispatch level.
void reset_dispatch() noexcept;

/// Fused mask + hash: masked[f * stride + i] = lanes[f * stride + i] &
/// masks[f] for f in [0, fields), i in [0, n), and hashes[i] =
/// detail::hash_words over key i's masked words. One pass over the
/// chunk — the probe kernel of every masked group (the exact template's
/// one full-width group, TSS subtables, the linear batch index).
void mask_hash_lanes(const std::uint64_t* lanes, std::size_t stride,
                     const std::uint64_t* masks, std::size_t fields,
                     std::size_t n, std::uint64_t* masked,
                     std::uint64_t* hashes);

/// True when key `i`'s masked lane words equal the packed entry words:
/// entry[f] == lanes[f * stride + i] for all f. The strided gather is
/// the probe-confirm step against SoA chunk storage.
[[nodiscard]] bool equal_lanes(const std::uint64_t* entry,
                               const std::uint64_t* lanes,
                               std::size_t stride,
                               std::size_t fields) noexcept;

}  // namespace maton::dp::simd

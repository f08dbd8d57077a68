// Shared helpers for the classifier templates (internal header).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/flow_key.hpp"
#include "dataplane/simd.hpp"

namespace maton::dp::detail {

/// FNV-1a over a span of 64-bit words.
[[nodiscard]] inline std::uint64_t hash_words(
    std::span<const std::uint64_t> words) noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  for (std::uint64_t w : words) {
    h ^= w;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Smallest power of two >= n (and >= 8).
[[nodiscard]] inline std::size_t table_capacity(std::size_t n) noexcept {
  std::size_t cap = 8;
  while (cap < n * 2) cap <<= 1;
  return cap;
}

/// Read-prefetch hint: pulls the cache line holding `p` towards L1 while
/// the batch kernels work on other keys. A no-op on compilers without the
/// builtin — correctness never depends on it.
inline void prefetch_read(const void* p) noexcept {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/3);
#else
  (void)p;
#endif
}

/// Batch kernels process keys in fixed-size chunks: big enough to put
/// several independent memory accesses in flight (prefetch distance),
/// small enough that per-chunk scratch stays in L1.
inline constexpr std::size_t kBatchChunk = 64;

/// Per-chunk SoA (structure-of-arrays) scratch for the batch kernels:
/// word `f` of key `i` lives at `lanes[f * kBatchChunk + i]`, so one
/// field's words for the whole chunk are contiguous and 64-byte
/// aligned — the layout the dp::simd kernels stream over. One block is
/// kNumFields * kBatchChunk * 8 = 7.5 KiB; a kernel's working set
/// (lanes + masked + hashes) stays L1-resident.
struct LaneBlock {
  alignas(64) std::array<std::uint64_t, kBatchChunk * kNumFields> words;

  [[nodiscard]] std::uint64_t* data() noexcept { return words.data(); }
  [[nodiscard]] const std::uint64_t* data() const noexcept {
    return words.data();
  }
};

/// Transposes `n` keys (n <= kBatchChunk) into SoA lanes over the
/// classifier's field set. Built once per chunk and reused by every
/// subtable/group probe of that chunk.
inline void transpose_chunk(std::span<const FlowKey> keys, std::size_t base,
                            std::size_t n, std::span<const FieldId> fields,
                            std::uint64_t* lanes) noexcept {
  for (std::size_t f = 0; f < fields.size(); ++f) {
    std::uint64_t* lane = lanes + f * kBatchChunk;
    for (std::size_t i = 0; i < n; ++i) {
      lane[i] = keys[base + i].get(fields[f]);
    }
  }
}

/// Rule positions of a classifier built once and then patched by
/// removals. The index keeps the positions the rules had at build time;
/// a removal keeps the surviving rules in order, so a live position is
/// the build position minus the removed build positions below it. The
/// removed positions are a bitmap with a running count per 64-bit word,
/// so either mapping is O(1) on the packet path; nothing is allocated
/// or computed while no rule has been removed.
class BuildPositions {
 public:
  explicit BuildPositions(std::size_t built) : built_(built) {}

  /// Live position of the surviving rule built at `build`.
  [[nodiscard]] std::size_t live(std::size_t build) const noexcept {
    if (removed_ == 0) return build;
    const Word& w = words_[build >> 6];
    const std::uint64_t lower = (std::uint64_t{1} << (build & 63)) - 1;
    return build - w.below -
           static_cast<std::size_t>(std::popcount(w.bits & lower));
  }

  /// Maps batch results from build to live positions, in place.
  void to_live(std::span<std::size_t> out) const noexcept {
    if (removed_ == 0) return;
    for (std::size_t& r : out) {
      if (r != kNoRule) r = live(r);
    }
  }

  /// Build position of the rule now at live position `index`.
  [[nodiscard]] std::size_t build(std::size_t index) const noexcept {
    if (removed_ == 0) return index;
    // The last word whose survivors before it number at most `index`
    // holds the rule; it is that word's (index - before)-th survivor.
    const auto before = [&](std::size_t k) { return 64 * k - words_[k].below; };
    std::size_t lo = 0;
    std::size_t hi = words_.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(mid) <= index) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    std::uint64_t survivors = ~words_[lo].bits;
    for (std::size_t r = index - before(lo); r > 0; --r) {
      survivors &= survivors - 1;
    }
    return 64 * lo + static_cast<std::size_t>(std::countr_zero(survivors));
  }

  /// Whether one more removal may be patched: past a fixed share of the
  /// built rules a rebuild is cheaper than carrying the removed ones.
  [[nodiscard]] bool can_remove() const noexcept {
    return (removed_ + 1) * kMaxRemovedShare <= built_;
  }

  /// Marks the surviving rule built at `build` removed.
  void remove(std::size_t build) {
    if (words_.empty()) words_.resize((built_ + 63) / 64);
    words_[build >> 6].bits |= std::uint64_t{1} << (build & 63);
    for (std::size_t k = (build >> 6) + 1; k < words_.size(); ++k) {
      ++words_[k].below;
    }
    ++removed_;
  }

 private:
  /// A classifier declines removals beyond 1/kMaxRemovedShare of its
  /// built rules.
  static constexpr std::size_t kMaxRemovedShare = 4;

  struct Word {
    std::uint64_t bits = 0;   // removed build positions in this word
    std::uint64_t below = 0;  // removed build positions in earlier words
  };

  std::size_t built_;
  std::size_t removed_ = 0;
  std::vector<Word> words_;
};

/// One mask-vector group of a tuple-space index: rules sharing a mask
/// vector over the classifier's field set, resolved by one exact-match
/// hash probe with an open chain for bucket collisions. Shared by
/// TssClassifier (groups probed in decreasing best-priority order) and
/// LinearClassifier's batch index (groups probed in ascending minimum-
/// rule order); both order keys are maintained unconditionally so the
/// same structure serves either probe discipline. Entries carry build
/// positions (see BuildPositions).
struct MaskedGroup {
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Entry {
    std::vector<std::uint64_t> values;
    std::size_t rule = 0;
    std::uint32_t priority = 0;
    std::size_t overflow = kNone;  // chain into MaskedGroup::spill
  };

  std::vector<std::uint64_t> masks;
  std::unordered_map<std::uint64_t, Entry> entries;
  std::vector<Entry> spill;
  /// Unlinked spill slots, reused by the next chained insert.
  std::vector<std::size_t> free_spill;
  /// Highest rule priority in the group (TSS early-exit bound). TSS
  /// declines removals that would lower it.
  std::uint32_t best_priority = 0;
  /// Smallest rule index in the group (first-match early-exit bound).
  /// The linear template's removals leave it as a lower bound, which
  /// keeps the early exit sound; TSS declines removals that would raise
  /// it.
  std::size_t min_rule = kNone;
  /// Whether any insertion was dropped as a complete-overlap duplicate.
  /// When set, point updates must decline: the shadowed rule would have
  /// to surface, which only a rebuild can decide.
  bool dropped_duplicate = false;

  /// Inserts a masked value vector. Two rules with identical masked
  /// values overlap completely, so the first insertion — rule order =
  /// priority order — wins and later duplicates are dropped.
  void insert(const std::vector<std::uint64_t>& values, std::size_t rule,
              std::uint32_t priority) {
    auto [it, inserted] =
        entries.try_emplace(hash_words(values), Entry{values, rule, priority,
                                                      kNone});
    if (!inserted) {
      Entry* e = &it->second;
      while (true) {
        if (e->values == values) {  // duplicate key: first wins
          dropped_duplicate = true;
          break;
        }
        if (e->overflow == kNone) {
          Entry added{values, rule, priority, kNone};
          if (free_spill.empty()) {
            e->overflow = spill.size();
            spill.push_back(std::move(added));
          } else {
            e->overflow = free_spill.back();
            free_spill.pop_back();
            spill[e->overflow] = std::move(added);
          }
          break;
        }
        e = &spill[e->overflow];
      }
    }
    best_priority = std::max(best_priority, priority);
    min_rule = std::min(min_rule, rule);
  }

  /// Unlinks `rule`'s entry for `values`; its spill slot, if any, goes
  /// to the free list. Returns false — caller must rebuild — when the
  /// group ever dropped a duplicate (the shadowed rule would have to
  /// surface) or the entry is missing or owned by a different rule.
  [[nodiscard]] bool erase(const std::vector<std::uint64_t>& values,
                           std::size_t rule) {
    if (dropped_duplicate) return false;
    const auto it = entries.find(hash_words(values));
    if (it == entries.end()) return false;
    Entry* prev = nullptr;
    Entry* e = &it->second;
    while (e != nullptr && e->values != values) {
      prev = e;
      e = e->overflow == kNone ? nullptr : &spill[e->overflow];
    }
    if (e == nullptr || e->rule != rule) return false;
    if (prev == nullptr) {
      const std::size_t next = e->overflow;
      if (next == kNone) {
        entries.erase(it);
      } else {
        it->second = std::move(spill[next]);  // chain shares the hash key
        free_slot(next);
      }
    } else {
      const std::size_t freed = prev->overflow;
      prev->overflow = e->overflow;
      free_slot(freed);
    }
    return true;
  }

  /// Point update for an in-place rule modification (same rule index,
  /// same priority): moves `rule`'s entry from `old_values` to
  /// `new_values`. Returns false — caller must rebuild — when erase
  /// would, or the new key already exists.
  [[nodiscard]] bool replace_values(
      const std::vector<std::uint64_t>& old_values,
      const std::vector<std::uint64_t>& new_values, std::size_t rule,
      std::uint32_t priority) {
    if (old_values == new_values) return true;  // action-only modify
    if (find(new_values) != nullptr) return false;
    if (!erase(old_values, rule)) return false;
    insert(new_values, rule, priority);
    return true;
  }

  /// Exact probe with the pre-masked key words; nullptr on miss.
  [[nodiscard]] const Entry* find(
      std::span<const std::uint64_t> masked) const {
    const auto it = entries.find(hash_words(masked));
    if (it == entries.end()) return nullptr;
    const Entry* e = &it->second;
    while (e != nullptr) {
      if (std::equal(masked.begin(), masked.end(), e->values.begin())) {
        return e;
      }
      e = e->overflow == kNone ? nullptr : &spill[e->overflow];
    }
    return nullptr;
  }

  /// Exact probe against SoA chunk storage: the key's masked word `f`
  /// lives at `masked[f * stride]` and `hash` was computed by the batch
  /// kernel (simd::mask_hash_lanes) over exactly those words. Bit-
  /// identical to find(): same hash, same chain walk, same compares —
  /// only the key layout is strided.
  [[nodiscard]] const Entry* find_lanes(std::uint64_t hash,
                                        const std::uint64_t* masked,
                                        std::size_t stride) const {
    const auto it = entries.find(hash);
    if (it == entries.end()) return nullptr;
    const Entry* e = &it->second;
    while (e != nullptr) {
      if (simd::equal_lanes(e->values.data(), masked, stride,
                            masks.size())) {
        return e;
      }
      e = e->overflow == kNone ? nullptr : &spill[e->overflow];
    }
    return nullptr;
  }

 private:
  void free_slot(std::size_t slot) {
    spill[slot] = Entry{};  // release the values buffer
    free_spill.push_back(slot);
  }
};

/// The group holding `mask_vec`, or nullptr. Linear scan: classifiers
/// have few distinct mask vectors.
[[nodiscard]] inline MaskedGroup* find_group(
    std::vector<MaskedGroup>& groups,
    const std::vector<std::uint64_t>& mask_vec) {
  for (MaskedGroup& group : groups) {
    if (group.masks == mask_vec) return &group;
  }
  return nullptr;
}

/// Returns the group holding `mask_vec`, creating it if absent. Linear
/// scan: classifiers have few distinct mask vectors, and this only runs
/// at build time.
[[nodiscard]] inline MaskedGroup& find_or_add_group(
    std::vector<MaskedGroup>& groups,
    const std::vector<std::uint64_t>& mask_vec) {
  if (MaskedGroup* group = find_group(groups, mask_vec)) return *group;
  groups.emplace_back();
  groups.back().masks = mask_vec;
  return groups.back();
}

/// A key's best match so far in probe_groups_batch.
struct ProbeBest {
  std::size_t rule = kNoRule;
  std::uint32_t priority = 0;
};

/// The masked-group batch probe shared by TssClassifier and
/// LinearClassifier's batch index. Each chunk of keys is transposed once
/// into SoA lanes (LaneBlock), then every group's mask-and-hash runs
/// across the chunk. A key leaves the active set once `decided(group,
/// best)` holds — groups must be ordered so that it then holds for every
/// later group too — and a found entry replaces the key's best match
/// when `better(entry, best)`. The two rules are the only difference
/// between the TSS priority discipline and the linear first-match one;
/// they are template parameters so the replay loop inlines them.
/// out[i] = the best rule for keys[i], or kNoRule.
template <typename Decided, typename Better>
void probe_groups_batch(std::span<const FlowKey> keys,
                        std::span<const FieldId> fields,
                        std::span<const MaskedGroup> groups,
                        std::span<std::size_t> out, Decided decided,
                        Better better) {
  const std::size_t nf = fields.size();
  LaneBlock lanes;
  LaneBlock masked;
  alignas(64) std::array<std::uint64_t, kBatchChunk> hashes;
  std::array<ProbeBest, kBatchChunk> best;
  std::array<std::uint32_t, kBatchChunk> active;
  std::uint64_t tmp[kNumFields];
  for (std::size_t base = 0; base < keys.size(); base += kBatchChunk) {
    const std::size_t n = std::min(kBatchChunk, keys.size() - base);
    transpose_chunk(keys, base, n, fields, lanes.data());
    for (std::size_t i = 0; i < n; ++i) {
      best[i] = ProbeBest{};
      active[i] = static_cast<std::uint32_t>(i);
    }
    const auto consider = [&](std::uint32_t i, const MaskedGroup::Entry* e) {
      if (e != nullptr && better(*e, best[i])) {
        best[i] = {e->rule, e->priority};
      }
    };
    std::size_t live = n;
    for (const MaskedGroup& group : groups) {
      std::size_t still = 0;
      for (std::size_t a = 0; a < live; ++a) {
        const std::uint32_t i = active[a];
        if (!decided(group, best[i])) active[still++] = i;
      }
      live = still;
      if (live == 0) break;
      if (simd::active_level() != simd::Level::kScalar && live * 4 >= n) {
        // Chunk-wide fused mask+hash: the 4-lane kernel covers the whole
        // chunk in ~n/4 steps, cheaper than live scalar probes once at
        // least a quarter of the chunk is still undecided. Its hash and
        // compares are the scalar probe's, so results are bit-identical
        // on every dispatch level.
        simd::mask_hash_lanes(lanes.data(), kBatchChunk, group.masks.data(),
                              nf, n, masked.data(), hashes.data());
        for (std::size_t a = 0; a < live; ++a) {
          const std::uint32_t i = active[a];
          consider(i, group.find_lanes(hashes[i], masked.data() + i,
                                       kBatchChunk));
        }
      } else {
        for (std::size_t a = 0; a < live; ++a) {
          const std::uint32_t i = active[a];
          for (std::size_t f = 0; f < nf; ++f) {
            tmp[f] = lanes.data()[f * kBatchChunk + i] & group.masks[f];
          }
          consider(i, group.find({tmp, nf}));
        }
      }
    }
    for (std::size_t i = 0; i < n; ++i) out[base + i] = best[i].rule;
  }
}

}  // namespace maton::dp::detail

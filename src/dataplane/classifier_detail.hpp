// Shared helpers for the classifier templates (internal header).
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/flow_key.hpp"
#include "dataplane/simd.hpp"
#include "util/build_positions.hpp"
#include "util/contract.hpp"

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

/// One mask-vector group of a tuple-space index: rules sharing a mask
/// vector over the classifier's field set, resolved by one exact-match
/// probe of a flat open-addressed table. The one rule index of the
/// templates: ExactMatchClassifier is a single group whose masks are its
/// fields' full widths, TssClassifier probes groups in decreasing
/// best-priority order and LinearClassifier's batch index in ascending
/// minimum-rule order; both order keys are maintained unconditionally so
/// the same structure serves either probe discipline. Entries carry
/// build positions (see util::BuildPositions).
///
/// Layout: a power-of-two number of slots, at most half full, linear
/// probing. A slot is one meta word (build position in the high 32 bits,
/// priority in the low 32, all ones when empty) followed inline by the
/// group's masked value words, so a probe that hits its home slot reads
/// one cache line. The home slot is the FNV-1a hash (hash_words, the
/// hash simd::mask_hash_lanes computes) through a multiplicative
/// finalizer that keeps the top bits: FNV-1a's low bits depend only on
/// the words' low bits. Erase shifts the displaced run back, so the
/// table never holds tombstones.
struct MaskedGroup {
  static constexpr std::size_t kNone = ~std::size_t{0};

  struct Entry {
    std::size_t rule = 0;
    std::uint32_t priority = 0;
  };

  /// Set before the first insert: it fixes the slot width.
  std::vector<std::uint64_t> masks;
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
  /// priority order — wins and later duplicates are dropped. The table
  /// doubles only when the new entry would fill more than half of it.
  void insert(std::span<const std::uint64_t> values, std::size_t rule,
              std::uint32_t priority) {
    expects(rule < kEmptyRule, "masked-group rules must fit in 32 bits");
    best_priority = std::max(best_priority, priority);
    min_rule = std::min(min_rule, rule);
    if (slots_.empty()) rehash(kMinCapacity);
    std::size_t slot = locate(values);
    if (!is_empty(slot)) {  // duplicate key: first wins
      dropped_duplicate = true;
      return;
    }
    if ((size_ + 1) * 2 > capacity()) {
      rehash(capacity() * 2);
      slot = locate(values);
    }
    std::uint64_t* s = slot_words(slot);
    s[0] = (std::uint64_t{rule} << 32) | priority;
    std::copy(values.begin(), values.end(), s + 1);
    ++size_;
  }

  /// Removes `rule`'s entry for `values`, shifting the run after it back
  /// so every entry stays reachable from its home slot. Returns false —
  /// caller must rebuild — when the group ever dropped a duplicate (the
  /// shadowed rule would have to surface) or the entry is missing or
  /// owned by a different rule.
  [[nodiscard]] bool erase(std::span<const std::uint64_t> values,
                           std::size_t rule) {
    if (dropped_duplicate || size_ == 0) return false;
    std::size_t hole = locate(values);
    if (is_empty(hole) || entry_at(hole).rule != rule) return false;
    const std::size_t stride = masks.size() + 1;
    const std::size_t cap_mask = capacity() - 1;
    for (std::size_t next = (hole + 1) & cap_mask; !is_empty(next);
         next = (next + 1) & cap_mask) {
      // The entry at `next` may fill the hole unless its home lies
      // cyclically in (hole, next]: moving it before its home would
      // hide it from probes.
      const std::uint64_t* s = slot_words(next);
      const std::size_t home = home_slot(hash_words({s + 1, masks.size()}));
      if (((next - home) & cap_mask) < ((next - hole) & cap_mask)) continue;
      std::copy(s, s + stride, slot_words(hole));
      hole = next;
    }
    slot_words(hole)[0] = kEmptyMeta;
    --size_;
    return true;
  }

  /// Point update for an in-place rule modification (same rule index,
  /// same priority): moves `rule`'s entry from `old_values` to
  /// `new_values`. Returns false — caller must rebuild — when erase
  /// would, or the new key already exists. The erase runs first, so the
  /// insert never grows the table.
  [[nodiscard]] bool replace_values(std::span<const std::uint64_t> old_values,
                                    std::span<const std::uint64_t> new_values,
                                    std::size_t rule, std::uint32_t priority) {
    if (std::equal(old_values.begin(), old_values.end(), new_values.begin(),
                   new_values.end())) {
      return true;  // action-only modify
    }
    if (find(new_values).has_value()) return false;
    if (!erase(old_values, rule)) return false;
    insert(new_values, rule, priority);
    return true;
  }

  /// Exact probe with the pre-masked key words.
  [[nodiscard]] std::optional<Entry> find(
      std::span<const std::uint64_t> masked) const {
    if (size_ == 0) return std::nullopt;
    const std::size_t slot = locate(masked);
    if (is_empty(slot)) return std::nullopt;
    return entry_at(slot);
  }

  /// Pulls the home slot of a key hashing to `hash` towards L1, so a
  /// later find_lanes of that key finds its line in flight. Both ends of
  /// the slot are touched: a wide slot can straddle two lines.
  void prefetch(std::uint64_t hash) const noexcept {
    if (size_ == 0) return;
    const std::uint64_t* s = slot_words(home_slot(hash));
    prefetch_read(s);
    prefetch_read(s + masks.size());
  }

  /// Exact probe against SoA chunk storage: the key's masked word `f`
  /// lives at `masked[f * stride]` and `hash` was computed by the batch
  /// kernel (simd::mask_hash_lanes) over exactly those words. Bit-
  /// identical to find(): same hash, same home slot, same compares —
  /// only the key layout is strided.
  [[nodiscard]] std::optional<Entry> find_lanes(std::uint64_t hash,
                                                const std::uint64_t* masked,
                                                std::size_t stride) const {
    if (size_ == 0) return std::nullopt;
    const std::size_t cap_mask = capacity() - 1;
    for (std::size_t slot = home_slot(hash); !is_empty(slot);
         slot = (slot + 1) & cap_mask) {
      const std::uint64_t* s = slot_words(slot);
      if (simd::equal_lanes(s + 1, masked, stride, masks.size())) {
        return entry_at(slot);
      }
    }
    return std::nullopt;
  }

  /// Live entries.
  [[nodiscard]] std::size_t size() const noexcept { return size_; }
  /// Slots in the table (a power of two, or 0 before the first insert).
  [[nodiscard]] std::size_t capacity() const noexcept { return capacity_; }

 private:
  static constexpr std::size_t kMinCapacity = 8;
  static constexpr std::uint64_t kEmptyMeta = ~std::uint64_t{0};
  /// The build position of an empty slot's meta word: live rules stay
  /// below it, so no live meta word is all ones.
  static constexpr std::size_t kEmptyRule = 0xFFFFFFFFu;

  [[nodiscard]] std::size_t home_slot(std::uint64_t hash) const noexcept {
    return static_cast<std::size_t>((hash * 0x9E3779B97F4A7C15ULL) >> shift_);
  }
  [[nodiscard]] std::uint64_t* slot_words(std::size_t slot) noexcept {
    return slots_.data() + slot * (masks.size() + 1);
  }
  [[nodiscard]] const std::uint64_t* slot_words(
      std::size_t slot) const noexcept {
    return slots_.data() + slot * (masks.size() + 1);
  }
  [[nodiscard]] bool is_empty(std::size_t slot) const noexcept {
    return slot_words(slot)[0] == kEmptyMeta;
  }
  [[nodiscard]] Entry entry_at(std::size_t slot) const noexcept {
    const std::uint64_t meta = slot_words(slot)[0];
    return {static_cast<std::size_t>(meta >> 32),
            static_cast<std::uint32_t>(meta)};
  }

  /// The slot holding `values`, else the empty slot ending its probe
  /// run. The table is never full, so the walk terminates. The inline
  /// words are compared in a plain loop: this is the per-packet probe of
  /// the scalar lookups, and a library compare call costs more than the
  /// few words it compares.
  [[nodiscard]] std::size_t locate(
      std::span<const std::uint64_t> values) const {
    const std::size_t nf = masks.size();
    const std::size_t cap_mask = capacity() - 1;
    for (std::size_t slot = home_slot(hash_words(values));;
         slot = (slot + 1) & cap_mask) {
      const std::uint64_t* s = slot_words(slot);
      if (s[0] == kEmptyMeta) return slot;
      std::size_t f = 0;
      while (f < nf && s[1 + f] == values[f]) ++f;
      if (f == nf) return slot;
    }
  }

  /// Re-inserts every entry into a fresh table of `cap` slots.
  void rehash(std::size_t cap) {
    const std::size_t stride = masks.size() + 1;
    std::vector<std::uint64_t> old(cap * stride, kEmptyMeta);
    old.swap(slots_);
    const std::size_t old_cap = capacity_;
    capacity_ = cap;
    shift_ = static_cast<unsigned>(64 - std::countr_zero(cap));
    for (std::size_t slot = 0; slot < old_cap; ++slot) {
      const std::uint64_t* s = old.data() + slot * stride;
      if (s[0] == kEmptyMeta) continue;
      const std::size_t to = locate({s + 1, masks.size()});
      std::copy(s, s + stride, slot_words(to));
    }
  }

  /// capacity_ * (masks.size() + 1) words; see the struct comment.
  std::vector<std::uint64_t> slots_;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
  unsigned shift_ = 64;  // 64 - log2(capacity_)
};

/// A rule's MatchRegion projected onto a classifier's field set, held on
/// the stack: the patch paths pack up to two rules per update and must
/// not allocate. Fields the rule does not match are 0 (wildcard). Only
/// the first `fields` words are set (see MatchRegion).
struct PackedMatch {
  std::array<std::uint64_t, kNumFields> mask;
  std::array<std::uint64_t, kNumFields> value;
  std::size_t fields = 0;
  /// Bit i set when some match names field i of the set.
  std::uint32_t matched = 0;
  /// False when no key can satisfy the rule (MatchRegion::satisfiable).
  /// Such a rule is left out of every index.
  bool satisfiable = true;
  /// True when a match names a field outside the set: the folded words
  /// do not describe the rule, so a patch must decline.
  bool outside = false;

  PackedMatch(std::span<const FieldId> set, const MatchRegion& region)
      : fields(set.size()), satisfiable(region.satisfiable) {
    expects(fields <= kNumFields,
            "a classifier matches at most kNumFields fields");
    std::uint32_t inside = 0;
    for (std::size_t i = 0; i < fields; ++i) {
      const std::size_t f = field_index(set[i]);
      inside |= std::uint32_t{1} << f;
      if ((region.matched >> f & 1u) != 0) {
        matched |= std::uint32_t{1} << i;
        mask[i] = region.mask[f];
        value[i] = region.value[f];
      } else {
        mask[i] = value[i] = 0;
      }
    }
    outside = (region.matched & ~inside) != 0;
  }
  [[nodiscard]] std::span<const std::uint64_t> masks() const noexcept {
    return {mask.data(), fields};
  }
  [[nodiscard]] std::span<const std::uint64_t> values() const noexcept {
    return {value.data(), fields};
  }
  /// Whether the folded rule can sit in a group with `group_masks`.
  [[nodiscard]] bool indexable_in(
      std::span<const std::uint64_t> group_masks) const noexcept {
    return satisfiable && !outside && std::ranges::equal(masks(), group_masks);
  }
};

/// A rule's matches read over `fields`, shared by every template and by
/// TableSpec::profile(): the MatchRegion of the list, projected.
template <typename MatchSeq>
[[nodiscard]] PackedMatch fold_matches(std::span<const FieldId> fields,
                                       const MatchSeq& matches) {
  return PackedMatch(fields, MatchRegion::of(matches));
}

/// The exact-match and LPM templates over a table whose profile the
/// caller has computed: kAllExact, or kSinglePrefix on `prefix_field`.
/// select_classifier_eswitch classifies a table once and hands the
/// result over; make_exact_match and make_lpm check it themselves.
[[nodiscard]] std::unique_ptr<Classifier> make_exact_match_profiled(
    const TableSpec& table);
[[nodiscard]] std::unique_ptr<Classifier> make_lpm_profiled(
    const TableSpec& table, FieldId prefix_field);

/// `fields` followed by every other field some rule matches on, in
/// first-match order: a field set no rule reaches outside of.
[[nodiscard]] inline std::vector<FieldId> matched_fields(
    std::vector<FieldId> fields, const FlatRules& rules) {
  for (const auto rule : rules) {
    for (const FieldMatch m : rule.matches) {
      if (std::find(fields.begin(), fields.end(), m.field) == fields.end()) {
        fields.push_back(m.field);
      }
    }
  }
  return fields;
}

/// The group holding `mask_vec`, or nullptr. Linear scan: classifiers
/// have few distinct mask vectors.
[[nodiscard]] inline MaskedGroup* find_group(
    std::vector<MaskedGroup>& groups,
    std::span<const std::uint64_t> mask_vec) {
  for (MaskedGroup& group : groups) {
    if (std::ranges::equal(group.masks, mask_vec)) return &group;
  }
  return nullptr;
}

/// Returns the group holding `mask_vec`, creating it if absent. Linear
/// scan: classifiers have few distinct mask vectors, and this only runs
/// at build time.
[[nodiscard]] inline MaskedGroup& find_or_add_group(
    std::vector<MaskedGroup>& groups,
    std::span<const std::uint64_t> mask_vec) {
  if (MaskedGroup* group = find_group(groups, mask_vec)) return *group;
  groups.emplace_back();
  groups.back().masks.assign(mask_vec.begin(), mask_vec.end());
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
    const auto consider = [&](std::uint32_t i,
                              std::optional<MaskedGroup::Entry> e) {
      if (e.has_value() && better(*e, best[i])) {
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
        // least a quarter of the chunk is still undecided. Every live
        // key's home slot is prefetched before the first probe, so the
        // chunk's cache misses overlap instead of queueing. The hash and
        // compares are the scalar probe's, so results are bit-identical
        // on every dispatch level.
        simd::mask_hash_lanes(lanes.data(), kBatchChunk, group.masks.data(),
                              nf, n, masked.data(), hashes.data());
        for (std::size_t a = 0; a < live; ++a) {
          group.prefetch(hashes[active[a]]);
        }
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

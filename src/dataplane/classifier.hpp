// Packet classifier templates.
//
// §5 attributes ESwitch's normalization gains to datapath specialization:
// "the first table will be compiled to the very fast exact-match template
// and the second table to an efficient longest-prefix-matching template".
// This header defines the classifier interface; concrete templates live
// in exact_match / lpm_trie / tss translation units, and
// select_classifier_eswitch() implements the ESwitch-style template
// choice.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>

#include "dataplane/program.hpp"

namespace maton::dp {

/// Miss sentinel for batch lookups (out-of-band of any rule index).
inline constexpr std::size_t kNoRule = ~std::size_t{0};

/// Immutable lookup structure over one table's rules. Returns the index
/// of the winning (highest-priority) rule, or nullopt on miss.
class Classifier {
 public:
  virtual ~Classifier() = default;
  Classifier(const Classifier&) = delete;
  Classifier& operator=(const Classifier&) = delete;

  [[nodiscard]] virtual std::optional<std::size_t> lookup(
      const FlowKey& key) const = 0;

  /// Batch lookup: out[i] = winning rule index for keys[i], or kNoRule on
  /// miss — bit-identical to calling lookup() per key. The base
  /// implementation is the scalar loop; templates override it where
  /// batching pays (software prefetch of hash buckets, level-synchronous
  /// trie walks, per-subtable mask hoisting). Requires
  /// out.size() >= keys.size().
  virtual void lookup_batch(std::span<const FlowKey> keys,
                            std::span<std::size_t> out) const {
    for (std::size_t i = 0; i < keys.size(); ++i) {
      const auto r = lookup(keys[i]);
      out[i] = r.has_value() ? *r : kNoRule;
    }
  }

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Delta maintenance for an in-place rule modification: the rule at
  /// `index` of `table` was replaced without changing position or
  /// priority; `old_matches` is the match vector it had before. Returns
  /// true when the classifier's index now reflects the table again;
  /// false when this template cannot patch the change incrementally, in
  /// which case the caller must rebuild the classifier. The base
  /// implementation always declines.
  [[nodiscard]] virtual bool apply_modify(
      const TableSpec& table, std::size_t index,
      std::span<const FieldMatch> old_matches) {
    (void)table;
    (void)index;
    (void)old_matches;
    return false;
  }

  /// Delta maintenance for a rule removal, with apply_modify's contract:
  /// the rule at `index` of `table` was removed (later rules shifted
  /// down by one); `old_matches` is its match vector. Returns true when
  /// the classifier now reflects the table; false means the caller must
  /// rebuild. The base implementation always declines.
  [[nodiscard]] virtual bool apply_remove(
      const TableSpec& table, std::size_t index,
      std::span<const FieldMatch> old_matches) {
    (void)table;
    (void)index;
    (void)old_matches;
    return false;
  }

 protected:
  Classifier() = default;
};

/// ESwitch's actual template inventory (§5 and [24]): exact-match on a
/// field set, LPM on a *single* field, or the slow generic wildcard
/// processor (linear). A universal table mixing a prefix column with
/// exact columns fits no fast template and degrades to the wildcard
/// path — the very effect behind Table 1's 1.5× normalization gain.
[[nodiscard]] std::unique_ptr<Classifier> select_classifier_eswitch(
    const TableSpec& table);

/// Individual template constructors (exposed for tests/benchmarks).
[[nodiscard]] std::unique_ptr<Classifier> make_exact_match(
    const TableSpec& table);
[[nodiscard]] std::unique_ptr<Classifier> make_lpm(const TableSpec& table);
[[nodiscard]] std::unique_ptr<Classifier> make_tss(const TableSpec& table);
[[nodiscard]] std::unique_ptr<Classifier> make_linear(const TableSpec& table);

}  // namespace maton::dp

// Exact-match classifier — the "very fast exact-match template" of
// ESwitch (§5): one masked group whose masks are the declared fields'
// full widths, so a lookup is one hash probe of the packed key.
#include <algorithm>
#include <array>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/classifier_detail.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

class ExactMatchClassifier final : public Classifier {
 public:
  /// `table` has MatchProfile::kAllExact.
  explicit ExactMatchClassifier(const TableSpec& table)
      : fields_(table.fields) {
    for (const FieldId f : fields_) {
      group_.masks.push_back(field_full_mask(f));
    }
    for (std::size_t r = 0; r < table.rules.size(); ++r) {
      const detail::PackedMatch packed =
          detail::fold_matches(fields_, table.rules[r].matches);
      if (!packed.satisfiable) continue;
      group_.insert(packed.values(), r, table.rules.priority_of(r));
    }
  }

  [[nodiscard]] std::optional<std::size_t> lookup(
      const FlowKey& key) const override {
    std::uint64_t packed[kNumFields];
    for (std::size_t f = 0; f < fields_.size(); ++f) {
      packed[f] = key.get(fields_[f]) & group_.masks[f];
    }
    const auto e = group_.find({packed, fields_.size()});
    if (!e.has_value()) return std::nullopt;
    return e->rule;
  }

  /// Delta maintenance: a modify whose rule still matches every field
  /// exactly moves its entry to the new key (an action-only modify
  /// leaves it). Anything else — a wildcarded or narrowed field, a field
  /// outside the set, an unsatisfiable rule, a dropped duplicate at
  /// build, a collision with another rule's key — declines.
  [[nodiscard]] bool apply_modify(
      const TableSpec& table, std::size_t index,
      const std::vector<FieldMatch>& old_matches) override {
    const detail::PackedMatch old_packed =
        detail::fold_matches(fields_, old_matches);
    const detail::PackedMatch new_packed =
        detail::fold_matches(fields_, table.rules[index].matches);
    return old_packed.indexable_in(group_.masks) &&
           new_packed.indexable_in(group_.masks) &&
           group_.replace_values(old_packed.values(), new_packed.values(),
                                 index, table.rules.priority_of(index));
  }

  /// The masked-group probe of one group: transpose the chunk, mask and
  /// hash it with the word-parallel kernel, prefetch every key's home
  /// slot, then probe with the lines already in flight.
  void lookup_batch(std::span<const FlowKey> keys,
                    std::span<std::size_t> out) const override {
    detail::LaneBlock lanes;
    detail::LaneBlock masked;
    alignas(64) std::array<std::uint64_t, detail::kBatchChunk> hashes;
    for (std::size_t base = 0; base < keys.size();
         base += detail::kBatchChunk) {
      const std::size_t n =
          std::min(detail::kBatchChunk, keys.size() - base);
      detail::transpose_chunk(keys, base, n, fields_, lanes.data());
      simd::mask_hash_lanes(lanes.data(), detail::kBatchChunk,
                            group_.masks.data(), fields_.size(), n,
                            masked.data(), hashes.data());
      for (std::size_t i = 0; i < n; ++i) group_.prefetch(hashes[i]);
      for (std::size_t i = 0; i < n; ++i) {
        const auto e = group_.find_lanes(hashes[i], masked.data() + i,
                                         detail::kBatchChunk);
        out[base + i] = e.has_value() ? e->rule : kNoRule;
      }
    }
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "exact";
  }

 private:
  std::vector<FieldId> fields_;
  detail::MaskedGroup group_;
};

}  // namespace

std::unique_ptr<Classifier> make_exact_match(const TableSpec& table) {
  expects(table.profile() == MatchProfile::kAllExact,
          "exact-match template requires an all-exact rule set");
  return detail::make_exact_match_profiled(table);
}

std::unique_ptr<Classifier> detail::make_exact_match_profiled(
    const TableSpec& table) {
  return std::make_unique<ExactMatchClassifier>(table);
}

}  // namespace maton::dp

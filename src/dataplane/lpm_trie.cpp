// Longest-prefix-match classifier: rules are grouped by their exact-match
// part (hash), each group owning a binary trie over the single prefix
// field — ESwitch's "efficient longest-prefix-matching template" (§5).
#include <algorithm>
#include <array>
#include <bit>
#include <unordered_map>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/classifier_detail.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

/// Binary trie over one field's prefixes; nodes in a flat vector.
class PrefixTrie {
 public:
  explicit PrefixTrie(unsigned width) : width_(width) { nodes_.push_back({}); }

  void insert(std::uint64_t value, unsigned plen, std::size_t rule) {
    expects(plen <= width_, "prefix length exceeds field width");
    std::size_t node = 0;
    for (unsigned i = 0; i < plen; ++i) {
      const unsigned bit =
          static_cast<unsigned>((value >> (width_ - 1 - i)) & 1);
      if (nodes_[node].child[bit] == kNone) {
        nodes_[node].child[bit] = nodes_.size();
        nodes_.push_back({});
      }
      node = nodes_[node].child[bit];
    }
    if (nodes_[node].rule == kNone) nodes_[node].rule = rule;
  }

  [[nodiscard]] std::optional<std::size_t> lookup(std::uint64_t value) const {
    std::size_t node = 0;
    std::size_t best = nodes_[0].rule;
    for (unsigned i = 0; i < width_; ++i) {
      const unsigned bit =
          static_cast<unsigned>((value >> (width_ - 1 - i)) & 1);
      const std::size_t next = nodes_[node].child[bit];
      if (next == kNone) break;
      node = next;
      if (nodes_[node].rule != kNone) best = nodes_[node].rule;
    }
    if (best == kNone) return std::nullopt;
    return best;
  }

  // Single-step accessors for the batch walker: it descends many tries
  // level-synchronously, keeping one dependent load per key in flight
  // instead of chasing one pointer chain to completion at a time.
  static constexpr std::size_t kNone = ~std::size_t{0};
  [[nodiscard]] std::size_t root_rule() const noexcept {
    return nodes_[0].rule;
  }
  [[nodiscard]] std::size_t child(std::size_t node,
                                  unsigned bit) const noexcept {
    return nodes_[node].child[bit];
  }
  [[nodiscard]] std::size_t rule(std::size_t node) const noexcept {
    return nodes_[node].rule;
  }
  [[nodiscard]] unsigned width() const noexcept { return width_; }
  void prefetch(std::size_t node) const noexcept {
    detail::prefetch_read(&nodes_[node]);
  }

 private:
  struct Node {
    std::size_t child[2] = {kNone, kNone};
    std::size_t rule = kNone;
  };
  unsigned width_;
  std::vector<Node> nodes_;
};

class LpmClassifier final : public Classifier {
 public:
  /// `table` has MatchProfile::kSinglePrefix on `prefix_field`.
  LpmClassifier(const TableSpec& table, FieldId prefix_field)
      : prefix_field_(prefix_field), prefix_width_(field_width(prefix_field)) {
    const std::vector<FieldId>& fields = table.fields;
    const auto prefix = static_cast<std::size_t>(
        std::find(fields.begin(), fields.end(), prefix_field_) -
        fields.begin());
    for (const FieldId f : fields) {
      if (f != prefix_field_) exact_fields_.push_back(f);
    }

    // Unsatisfiable rules never match and stay out of the tries.
    for (std::size_t r = 0; r < table.rules.size(); ++r) {
      const detail::PackedMatch packed =
          detail::fold_matches(fields, table.rules[r].matches);
      if (!packed.satisfiable) continue;
      std::vector<std::uint64_t> exact_key;
      exact_key.reserve(exact_fields_.size());
      for (std::size_t f = 0; f < fields.size(); ++f) {
        if (f != prefix) exact_key.push_back(packed.value[f]);
      }
      // Buckets chain on hash collisions across distinct exact keys.
      auto& bucket = groups_[detail::hash_words(exact_key)];
      Group* group = nullptr;
      for (const auto& g : bucket) {
        if (g->exact_key == exact_key) {
          group = g.get();
          break;
        }
      }
      if (group == nullptr) {
        bucket.push_back(std::make_unique<Group>(prefix_width_));
        group = bucket.back().get();
        group->exact_key = exact_key;
      }
      const auto plen =
          static_cast<unsigned>(std::popcount(packed.mask[prefix]));
      group->trie.insert(packed.value[prefix], plen, r);
    }
  }

  [[nodiscard]] std::optional<std::size_t> lookup(
      const FlowKey& key) const override {
    const Group* group = find_group(key);
    if (group == nullptr) return std::nullopt;
    return group->trie.lookup(key.get(prefix_field_));
  }

  /// Chunked batch lookup: stage 1 resolves each key's exact-match group;
  /// stage 2 walks all tries level-synchronously, prefetching each key's
  /// next trie node before moving to the other keys, so the dependent
  /// node loads of the whole chunk overlap.
  void lookup_batch(std::span<const FlowKey> keys,
                    std::span<std::size_t> out) const override {
    std::array<const PrefixTrie*, detail::kBatchChunk> trie;
    std::array<std::uint64_t, detail::kBatchChunk> value;
    std::array<std::size_t, detail::kBatchChunk> node;
    std::array<std::size_t, detail::kBatchChunk> best;
    std::array<std::uint32_t, detail::kBatchChunk> active;
    for (std::size_t base = 0; base < keys.size();
         base += detail::kBatchChunk) {
      const std::size_t n =
          std::min(detail::kBatchChunk, keys.size() - base);
      std::size_t live = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const Group* group = find_group(keys[base + i]);
        if (group == nullptr) {
          out[base + i] = kNoRule;
          continue;
        }
        trie[i] = &group->trie;
        value[i] = keys[base + i].get(prefix_field_);
        node[i] = 0;
        best[i] = group->trie.root_rule();
        trie[i]->prefetch(0);
        active[live++] = static_cast<std::uint32_t>(i);
      }
      for (unsigned depth = 0; live > 0 && depth < prefix_width_; ++depth) {
        std::size_t still = 0;
        for (std::size_t a = 0; a < live; ++a) {
          const std::uint32_t i = active[a];
          const unsigned bit = static_cast<unsigned>(
              (value[i] >> (prefix_width_ - 1 - depth)) & 1);
          const std::size_t next = trie[i]->child(node[i], bit);
          if (next == PrefixTrie::kNone) {
            out[base + i] =
                best[i] == PrefixTrie::kNone ? kNoRule : best[i];
            continue;
          }
          node[i] = next;
          trie[i]->prefetch(next);
          if (trie[i]->rule(next) != PrefixTrie::kNone) {
            best[i] = trie[i]->rule(next);
          }
          active[still++] = i;
        }
        live = still;
      }
      // Keys that consumed every prefix bit without falling off the trie.
      for (std::size_t a = 0; a < live; ++a) {
        const std::uint32_t i = active[a];
        out[base + i] = best[i] == PrefixTrie::kNone ? kNoRule : best[i];
      }
    }
  }

  /// Delta maintenance: the tries index rules by their match vectors
  /// alone, and a modify keeps the rule's position and priority, so an
  /// actions-only modify leaves the index exact. A changed match vector
  /// declines (the rule would move between tries or trie nodes).
  [[nodiscard]] bool apply_modify(
      const TableSpec& table, std::size_t index,
      std::span<const FieldMatch> old_matches) override {
    return table.rules[index].matches == old_matches;
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "lpm";
  }

 private:
  struct Group {
    explicit Group(unsigned width) : trie(width) {}
    std::vector<std::uint64_t> exact_key;
    PrefixTrie trie;
  };

  [[nodiscard]] const Group* find_group(const FlowKey& key) const {
    std::uint64_t exact_key[kNumFields];
    for (std::size_t f = 0; f < exact_fields_.size(); ++f) {
      exact_key[f] = key.get(exact_fields_[f]);
    }
    const std::span<const std::uint64_t> view(exact_key,
                                              exact_fields_.size());
    const auto it = groups_.find(detail::hash_words(view));
    if (it == groups_.end()) return nullptr;
    for (const auto& group : it->second) {
      bool equal = true;
      for (std::size_t f = 0; f < exact_fields_.size(); ++f) {
        if (group->exact_key[f] != exact_key[f]) {
          equal = false;
          break;
        }
      }
      if (equal) return group.get();
    }
    return nullptr;
  }

  FieldId prefix_field_ = FieldId::kIpDst;
  unsigned prefix_width_ = 32;
  std::vector<FieldId> exact_fields_;
  std::unordered_map<std::uint64_t, std::vector<std::unique_ptr<Group>>>
      groups_;
};

}  // namespace

std::unique_ptr<Classifier> make_lpm(const TableSpec& table) {
  FieldId prefix_field = FieldId::kIpDst;
  expects(table.profile(&prefix_field) == MatchProfile::kSinglePrefix,
          "LPM template requires a single-prefix rule set");
  return detail::make_lpm_profiled(table, prefix_field);
}

std::unique_ptr<Classifier> detail::make_lpm_profiled(const TableSpec& table,
                                                      FieldId prefix_field) {
  return std::make_unique<LpmClassifier>(table, prefix_field);
}

}  // namespace maton::dp

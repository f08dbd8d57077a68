// Tuple-space search classifier: rules grouped by their mask vector, one
// exact hash per group, probing groups in decreasing best-priority order
// with early exit — the OVS megaflow lookup structure (§5, [28]).
#include <algorithm>
#include <array>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/classifier_detail.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

class TssClassifier final : public Classifier {
 public:
  explicit TssClassifier(const TableSpec& table)
      : fields_(detail::matched_fields(table.fields, table.rules)),
        positions_(table.rules.size()) {
    // Group rules by their full mask vector over the fields (absent field
    // match ⇒ mask 0, i.e. wildcard).
    for (std::size_t r = 0; r < table.rules.size(); ++r) {
      const detail::PackedMatch packed =
          detail::fold_matches(fields_, table.rules[r].matches);
      if (!packed.satisfiable) continue;
      detail::find_or_add_group(subtables_, packed.masks())
          .insert(packed.values(), r, table.rules.priority_of(r));
    }
    std::sort(subtables_.begin(), subtables_.end(),
              [](const detail::MaskedGroup& a, const detail::MaskedGroup& b) {
                return a.best_priority > b.best_priority;
              });
  }

  /// Delta maintenance: a value-only modify (mask vector unchanged) is a
  /// point re-hash inside the rule's subtable — no group rebuild, no
  /// re-sort (the priority is unchanged by contract, so the probe order
  /// bounds stay valid). A mask change moves the rule across subtables,
  /// and a new field or an unsatisfiable rule changes what the index
  /// holds: those decline.
  [[nodiscard]] bool apply_modify(
      const TableSpec& table, std::size_t index,
      std::span<const FieldMatch> old_matches) override {
    const detail::PackedMatch old_packed =
        detail::fold_matches(fields_, old_matches);
    const RuleView rule = table.rules[index];
    const detail::PackedMatch new_packed =
        detail::fold_matches(fields_, rule.matches);
    detail::MaskedGroup* sub =
        detail::find_group(subtables_, old_packed.masks());
    return sub != nullptr && old_packed.indexable_in(sub->masks) &&
           new_packed.indexable_in(sub->masks) &&
           sub->replace_values(old_packed.values(), new_packed.values(),
                               positions_.build(index), rule.priority);
  }

  /// Delta maintenance: a removal unlinks the rule's entry from its
  /// subtable. Equal-priority matches in different subtables go to the
  /// earlier subtable, so the probe order must stay what a fresh build
  /// would sort: the removal declines when the rule holds its subtable's
  /// best priority (the sort key) or is its first rule (which places the
  /// subtable among equal keys).
  [[nodiscard]] bool apply_remove(
      const TableSpec& /*table*/, std::size_t index,
      std::span<const FieldMatch> old_matches) override {
    if (!positions_.can_remove()) return false;
    const detail::PackedMatch packed =
        detail::fold_matches(fields_, old_matches);
    detail::MaskedGroup* sub = detail::find_group(subtables_, packed.masks());
    const std::size_t build = positions_.build(index);
    if (sub == nullptr || !packed.indexable_in(sub->masks) ||
        build == sub->min_rule) {
      return false;
    }
    const std::optional<detail::MaskedGroup::Entry> entry =
        sub->find(packed.values());
    if (!entry.has_value() || entry->priority == sub->best_priority ||
        !sub->erase(packed.values(), build)) {
      return false;
    }
    positions_.remove(build);
    return true;
  }

  [[nodiscard]] std::optional<std::size_t> lookup(
      const FlowKey& key) const override {
    std::optional<std::size_t> best;
    std::uint32_t best_priority = 0;
    std::uint64_t masked[kNumFields];
    for (const detail::MaskedGroup& sub : subtables_) {
      if (best.has_value() && best_priority >= sub.best_priority) break;
      for (std::size_t f = 0; f < fields_.size(); ++f) {
        masked[f] = key.get(fields_[f]) & sub.masks[f];
      }
      const auto e = sub.find({masked, fields_.size()});
      if (e.has_value() &&
          (!best.has_value() || e->priority > best_priority)) {
        best = e->rule;
        best_priority = e->priority;
      }
    }
    if (!best.has_value()) return std::nullopt;
    return positions_.live(*best);
  }

  /// Chunked batch lookup through the shared masked-group probe
  /// (detail::probe_groups_batch) with the scalar path's rules: a key is
  /// decided once its match is at or above a subtable's (and every later
  /// subtable's) best priority, and a strictly higher priority wins.
  void lookup_batch(std::span<const FlowKey> keys,
                    std::span<std::size_t> out) const override {
    detail::probe_groups_batch(
        keys, fields_, subtables_, out,
        [](const detail::MaskedGroup& sub, const detail::ProbeBest& best) {
          return best.rule != kNoRule && best.priority >= sub.best_priority;
        },
        [](const detail::MaskedGroup::Entry& e,
           const detail::ProbeBest& best) {
          return best.rule == kNoRule || e.priority > best.priority;
        });
    positions_.to_live(out.first(keys.size()), kNoRule);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "tss";
  }

 private:
  std::vector<FieldId> fields_;  // declared fields, then any other matched
  std::vector<detail::MaskedGroup> subtables_;
  util::BuildPositions positions_;
};

class LinearClassifier final : public Classifier {
 public:
  explicit LinearClassifier(const TableSpec& table)
      : nrules_(table.rules.size()),
        fields_(detail::matched_fields({}, table.rules)),
        positions_(table.rules.size()) {
    build_flat(table.rules);
    build_groups(table.rules);
  }

  [[nodiscard]] std::optional<std::size_t> lookup(
      const FlowKey& key) const override {
    for (std::size_t r = 0; r < nrules_; ++r) {  // priority-sorted
      const FlatMatch* fm = flat_.data() + flat_begin_[r];
      const std::size_t nm = flat_begin_[r + 1] - flat_begin_[r];
      bool ok = true;
      for (std::size_t m = 0; m < nm; ++m) {
        if ((key.values[fm[m].index] & fm[m].mask) != fm[m].value) {
          ok = false;
          break;
        }
      }
      if (ok) return positions_.live(r);
    }
    return std::nullopt;
  }

  /// Delta maintenance: a modify that keeps the rule's match count and
  /// group mask vector rewrites the flat predicate span in place and
  /// point-updates the masked-group index. Anything structural (new
  /// fields, mask changes, satisfiability flips) declines.
  [[nodiscard]] bool apply_modify(
      const TableSpec& table, std::size_t index,
      std::span<const FieldMatch> old_matches) override {
    const RuleView rule = table.rules[index];
    const std::size_t build = positions_.build(index);
    const std::size_t off = flat_begin_[build];
    const std::size_t old_n = flat_begin_[build + 1] - off;
    if (rule.matches.size() != old_n) return false;  // span widths fixed
    // A new field would regrow the group index, and (un)satisfiable rules
    // are absent from it: both decline.
    const detail::PackedMatch old_packed =
        detail::fold_matches(fields_, old_matches);
    const detail::PackedMatch new_packed =
        detail::fold_matches(fields_, rule.matches);
    detail::MaskedGroup* group =
        detail::find_group(groups_, old_packed.masks());
    if (group == nullptr || !old_packed.indexable_in(group->masks) ||
        !new_packed.indexable_in(group->masks) ||
        !group->replace_values(old_packed.values(), new_packed.values(),
                               build, table.rules.priority_of(index))) {
      return false;
    }
    for (std::size_t m = 0; m < old_n; ++m) {
      const FieldMatch fm = rule.matches[m];
      flat_[off + m] = {fm.mask, fm.value,
                        static_cast<std::uint32_t>(field_index(fm.field))};
    }
    return true;
  }

  /// Delta maintenance: a removal unlinks the rule's masked-group entry
  /// and turns its flat predicate span into one that never matches, so
  /// both scans skip it. Group order and bounds stay as built; results
  /// map build positions to live ones. Declines for a rule without
  /// predicates (nothing to turn off) and once the removed share passes
  /// BuildPositions' bound.
  [[nodiscard]] bool apply_remove(
      const TableSpec& /*table*/, std::size_t index,
      std::span<const FieldMatch> old_matches) override {
    if (!positions_.can_remove()) return false;
    const std::size_t build = positions_.build(index);
    const std::size_t off = flat_begin_[build];
    if (old_matches.empty() ||
        flat_begin_[build + 1] - off != old_matches.size()) {
      return false;
    }
    for (std::size_t m = 0; m < old_matches.size(); ++m) {
      const FieldMatch fm = old_matches[m];
      if (flat_[off + m].mask != fm.mask ||
          flat_[off + m].value != fm.value ||
          flat_[off + m].index != field_index(fm.field)) {
        return false;  // not the rule the index holds at this position
      }
    }
    const detail::PackedMatch packed =
        detail::fold_matches(fields_, old_matches);
    if (packed.satisfiable) {
      detail::MaskedGroup* group = detail::find_group(groups_, packed.masks());
      if (group == nullptr || !group->erase(packed.values(), build)) {
        return false;
      }
    }
    flat_[off] = kNeverMatches;
    positions_.remove(build);
    return true;
  }

  /// Batch kernel. The scalar path above is the paper-faithful linear
  /// wildcard processor (its per-packet cost is exactly what Table 1
  /// charges ESwitch for the universal representation); the batch path
  /// is free to spend construction time on a better-indexed probe as
  /// long as the results stay bit-identical. Large tables use a
  /// masked-group index — the §5 tuple-space structure resolved by
  /// minimum rule index, i.e. first-match order — through the shared
  /// detail::probe_groups_batch: groups are sorted by min_rule, so a key
  /// whose best match precedes a group's smallest rule index is decided,
  /// and the smaller rule index wins. Tiny tables scan faster than they
  /// hash, so they take a rules-outer scan over a flattened predicate
  /// array instead.
  void lookup_batch(std::span<const FlowKey> keys,
                    std::span<std::size_t> out) const override {
    if (nrules_ <= kScanThreshold) {
      scan_batch(keys, out);
    } else {
      detail::probe_groups_batch(
          keys, fields_, groups_, out,
          [](const detail::MaskedGroup& group,
             const detail::ProbeBest& best) {
            return best.rule < group.min_rule;
          },
          [](const detail::MaskedGroup::Entry& e,
             const detail::ProbeBest& best) { return e.rule < best.rule; });
    }
    positions_.to_live(out.first(keys.size()), kNoRule);
  }

  [[nodiscard]] std::string_view name() const noexcept override {
    return "linear";
  }

 private:
  /// Below this rule count the flat scan beats the hashed group probe.
  static constexpr std::size_t kScanThreshold = 8;

  struct FlatMatch {
    std::uint64_t mask = 0;
    std::uint64_t value = 0;
    std::uint32_t index = 0;  // field_index(field) into FlowKey::values
  };
  /// Predicate no key satisfies: a removed rule's first match.
  static constexpr FlatMatch kNeverMatches{0, 1, 0};

  /// Flattens every rule's predicates into one contiguous array so the
  /// small-table scan streams through memory instead of chasing per-rule
  /// indirection.
  void build_flat(const FlatRules& rules) {
    std::size_t predicates = 0;
    for (const auto rule : rules) predicates += rule.matches.size();
    flat_.reserve(predicates);
    flat_begin_.reserve(rules.size() + 1);
    flat_begin_.push_back(0);
    for (const auto rule : rules) {
      for (const FieldMatch m : rule.matches) {
        flat_.push_back({m.mask, m.value,
                         static_cast<std::uint32_t>(field_index(m.field))});
      }
      flat_begin_.push_back(static_cast<std::uint32_t>(flat_.size()));
    }
  }

  /// Groups rules by their mask vector over the union of matched fields.
  /// Within a group two rules overlap only if their masked values are
  /// identical, so keeping the first (insertion order = rule order)
  /// preserves first-match semantics; across groups the probe takes the
  /// minimum matching rule index. Unsatisfiable rules are left out.
  void build_groups(const FlatRules& rules) {
    for (std::size_t r = 0; r < rules.size(); ++r) {
      const detail::PackedMatch packed =
          detail::fold_matches(fields_, rules[r].matches);
      if (!packed.satisfiable) continue;
      detail::find_or_add_group(groups_, packed.masks())
          .insert(packed.values(), r, rules.priority_of(r));
    }
    // Ascending min_rule lets the probe stop as soon as the current best
    // match precedes every remaining group.
    std::sort(groups_.begin(), groups_.end(),
              [](const detail::MaskedGroup& a, const detail::MaskedGroup& b) {
                return a.min_rule < b.min_rule;
              });
  }

  /// Rules-outer batch scan over the flattened predicates; keys leave
  /// the active set at their first — lowest-index — hit.
  void scan_batch(std::span<const FlowKey> keys,
                  std::span<std::size_t> out) const {
    std::array<std::uint32_t, detail::kBatchChunk> active;
    for (std::size_t base = 0; base < keys.size();
         base += detail::kBatchChunk) {
      const std::size_t n =
          std::min(detail::kBatchChunk, keys.size() - base);
      for (std::size_t i = 0; i < n; ++i) {
        out[base + i] = kNoRule;
        active[i] = static_cast<std::uint32_t>(i);
      }
      std::size_t live = n;
      for (std::size_t r = 0; r < nrules_ && live > 0; ++r) {
        const FlatMatch* fm = flat_.data() + flat_begin_[r];
        const std::size_t nm = flat_begin_[r + 1] - flat_begin_[r];
        std::size_t still = 0;
        for (std::size_t a = 0; a < live; ++a) {
          const std::uint32_t i = active[a];
          const std::uint64_t* kv = keys[base + i].values.data();
          bool ok = true;
          for (std::size_t m = 0; m < nm; ++m) {
            if ((kv[fm[m].index] & fm[m].mask) != fm[m].value) {
              ok = false;
              break;
            }
          }
          if (ok) {
            out[base + i] = r;
          } else {
            active[still++] = i;
          }
        }
        live = still;
      }
    }
  }

  std::size_t nrules_ = 0;  // rules at build time
  std::vector<FieldId> fields_;  // union of matched fields, batch index
  std::vector<FlatMatch> flat_;
  std::vector<std::uint32_t> flat_begin_;
  std::vector<detail::MaskedGroup> groups_;
  util::BuildPositions positions_;
};

}  // namespace

std::unique_ptr<Classifier> make_tss(const TableSpec& table) {
  return std::make_unique<TssClassifier>(table);
}

std::unique_ptr<Classifier> make_linear(const TableSpec& table) {
  return std::make_unique<LinearClassifier>(table);
}

std::unique_ptr<Classifier> select_classifier_eswitch(
    const TableSpec& table) {
  // One classification; the chosen template trusts it rather than
  // folding every rule again to re-check it.
  FieldId prefix_field = FieldId::kIpDst;
  switch (table.profile(&prefix_field)) {
    case MatchProfile::kAllExact:
      return detail::make_exact_match_profiled(table);
    case MatchProfile::kSinglePrefix:
      // ESwitch only has a single-field LPM template; a prefix column
      // mixed with other match fields falls through to the wildcard
      // processor.
      if (table.fields.size() == 1) {
        return detail::make_lpm_profiled(table, prefix_field);
      }
      return make_linear(table);
    case MatchProfile::kTernary:
      return make_linear(table);
  }
  return make_linear(table);
}

}  // namespace maton::dp

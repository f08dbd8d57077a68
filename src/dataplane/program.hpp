// Data-plane programs: the lowered form of a core::Pipeline that switch
// models load and execute.
//
// A Program is a list of TableSpecs. Each table declares the fields it
// matches (with per-rule masks supporting exact, prefix and wildcard
// matching), its rules in priority order, and per-rule actions (output,
// set-field for header rewrites and metadata tags, goto-table).
//
// Rule storage is flattened: a TableSpec holds one contiguous SoA match
// pool (field / value / mask arrays), one packed action pool, and a
// 20-byte ref per rule carrying (offset, count) spans into the pools —
// no per-rule heap vectors. `Rule` remains the boundary type for
// constructing and exchanging single rules; `FlatRules` yields
// `RuleView` proxies whose members mirror `Rule` so consumers read
// `rule.priority` / `rule.matches` / `rule.actions` / `rule.goto_table`
// unchanged.
//
// The compiler maps core attribute names onto the FieldId registry:
// well-known header names map directly, `meta.*` attributes are assigned
// to metadata registers, `out` becomes the output action, `mod_<field>`
// becomes a set-field action, and ValueCodec::kIpv4Prefix tokens are
// unpacked into value/mask prefix matches.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.hpp"
#include "dataplane/flow_key.hpp"
#include "util/build_positions.hpp"
#include "util/small_vector.hpp"
#include "util/status.hpp"

namespace maton::dp {

/// Masked single-field match: key.get(field) & mask == value.
struct FieldMatch {
  FieldId field = FieldId::kInPort;
  std::uint64_t value = 0;
  std::uint64_t mask = ~std::uint64_t{0};

  [[nodiscard]] bool matches(const FlowKey& key) const noexcept {
    return (key.get(field) & mask) == value;
  }
  friend bool operator==(const FieldMatch&, const FieldMatch&) = default;
};

/// The keys a rule's match list admits (Eq. 1: a conjunction of masked
/// equalities), per field index. The one reading of a match list: the
/// classifier templates project it onto their field sets, the prover
/// turns it into cubes and the shadowing pass compares regions. Repeated
/// matches on one field combine into the union of their masks and
/// values. Only the words of matched fields are written: GCC turns a
/// zeroing loop into `rep stos`, whose start-up cost was most of a
/// fold's.
struct MatchRegion {
  std::array<std::uint64_t, kNumFields> mask;
  std::array<std::uint64_t, kNumFields> value;
  /// Bit f set when some match names field index f; the words of the
  /// other fields are unset.
  std::uint32_t matched = 0;
  /// False when no key lies in the region: a match requires bits its
  /// mask clears, or two matches on one field disagree on bits both
  /// masks keep.
  bool satisfiable = true;
  /// The field of the first match that emptied the region.
  FieldId conflict = FieldId::kInPort;

  /// Region of a match list: a MatchRange, a std::vector<FieldMatch> or
  /// a span of them.
  template <typename MatchList>
  [[nodiscard]] static MatchRegion of(const MatchList& matches) noexcept {
    MatchRegion r;
    for (const FieldMatch m : matches) r.add(m);
    return r;
  }

  void add(const FieldMatch& m) noexcept {
    const std::size_t f = field_index(m.field);
    const std::uint32_t bit = std::uint32_t{1} << f;
    if ((matched & bit) == 0) {
      matched |= bit;
      mask[f] = value[f] = 0;
    }
    if (satisfiable && ((m.value & ~m.mask) != 0 ||
                        ((value[f] ^ m.value) & mask[f] & m.mask) != 0)) {
      satisfiable = false;
      conflict = m.field;
    }
    mask[f] |= m.mask;
    value[f] |= m.value;
  }

  /// Whether some key lies in both regions.
  [[nodiscard]] bool intersects(const MatchRegion& o) const noexcept {
    if (!satisfiable || !o.satisfiable) return false;
    for (std::uint32_t both = matched & o.matched; both != 0;
         both &= both - 1) {
      const auto f = static_cast<std::size_t>(std::countr_zero(both));
      if (((value[f] ^ o.value[f]) & mask[f] & o.mask[f]) != 0) return false;
    }
    return true;
  }

  /// Whether every key of `o` lies in this region.
  [[nodiscard]] bool contains(const MatchRegion& o) const noexcept {
    if (!o.satisfiable) return true;
    if (!satisfiable) return false;
    for (std::uint32_t rest = matched; rest != 0; rest &= rest - 1) {
      const auto f = static_cast<std::size_t>(std::countr_zero(rest));
      // A field `o` does not match reads as mask 0, value 0.
      const bool fixed = (o.matched >> f & 1u) != 0;
      const std::uint64_t o_mask = fixed ? o.mask[f] : 0;
      const std::uint64_t o_value = fixed ? o.value[f] : 0;
      if ((o_mask & mask[f]) != mask[f] || (o_value & mask[f]) != value[f]) {
        return false;
      }
    }
    return true;
  }
};

struct Action {
  enum class Kind { kOutput, kSetField };
  Kind kind = Kind::kOutput;
  FieldId field = FieldId::kMeta0;  // for kSetField
  std::uint64_t value = 0;          // port for kOutput, new value otherwise
  /// Declared width of a kSetField write in bits: only the low
  /// `width_bits` bits of `field` are defined after the write. Lowering
  /// sets it from the source attribute; the dataflow pass uses it to
  /// catch reads of partially-initialized metadata (MA302). 64 means
  /// "whole field" and is the conservative default.
  std::uint8_t width_bits = 64;

  friend bool operator==(const Action&, const Action&) = default;
};

struct Rule {
  std::uint32_t priority = 0;
  std::vector<FieldMatch> matches;
  std::vector<Action> actions;
  /// Next table index on hit; nullopt falls through to the table default.
  std::optional<std::size_t> goto_table;

  [[nodiscard]] bool matches_key(const FlowKey& key) const noexcept {
    for (const FieldMatch& m : matches) {
      if (!m.matches(key)) return false;
    }
    return true;
  }
  friend bool operator==(const Rule&, const Rule&) = default;
};

/// View over one rule's span of the SoA match pool. Iteration and
/// indexing yield `FieldMatch` by value; an implicit conversion
/// materializes a `std::vector<FieldMatch>` where the boundary type is
/// needed (RuleUpdate targets, diff pairing). Views are transient: any
/// mutation of the owning FlatRules invalidates them.
class MatchRange {
 public:
  MatchRange() = default;
  /// `mask_id` indexes into the owning table's interned `mask_pool`;
  /// masks repeat heavily (exact matches share one all-ones entry), so
  /// the per-match footprint is a 2-byte id, not an 8-byte mask.
  MatchRange(const std::uint8_t* field, const std::uint64_t* value,
             const std::uint16_t* mask_id, const std::uint64_t* mask_pool,
             std::size_t count) noexcept
      : field_(field), value_(value), mask_id_(mask_id),
        mask_pool_(mask_pool), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }

  [[nodiscard]] FieldMatch operator[](std::size_t i) const noexcept {
    return {static_cast<FieldId>(field_[i]), value_[i],
            mask_pool_[mask_id_[i]]};
  }

  class iterator {
   public:
    using value_type = FieldMatch;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const MatchRange* r, std::size_t i) noexcept : r_(r), i_(i) {}
    FieldMatch operator*() const noexcept { return (*r_)[i_]; }
    iterator& operator++() noexcept { ++i_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++i_; return t; }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.i_ == b.i_;
    }
   private:
    const MatchRange* r_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {this, count_}; }

  // NOLINTNEXTLINE(google-explicit-constructor): intentional bridge to
  // the boundary type so assignment sites stay mechanical.
  operator std::vector<FieldMatch>() const {
    std::vector<FieldMatch> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) out.push_back((*this)[i]);
    return out;
  }

  [[nodiscard]] bool matches_key(const FlowKey& key) const noexcept {
    for (std::size_t i = 0; i < count_; ++i) {
      if ((key.values[field_[i]] & mask_pool_[mask_id_[i]]) != value_[i]) {
        return false;
      }
    }
    return true;
  }

  friend bool operator==(const MatchRange& a, const MatchRange& b) noexcept {
    if (a.count_ != b.count_) return false;
    for (std::size_t i = 0; i < a.count_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator==(const MatchRange& a,
                         const std::vector<FieldMatch>& b) noexcept {
    if (a.count_ != b.size()) return false;
    for (std::size_t i = 0; i < a.count_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  const std::uint8_t* field_ = nullptr;
  const std::uint64_t* value_ = nullptr;
  const std::uint16_t* mask_id_ = nullptr;
  const std::uint64_t* mask_pool_ = nullptr;
  std::size_t count_ = 0;
};

/// 16-byte pooled action entry (vs 24 bytes for the boundary Action).
struct PackedAction {
  std::uint64_t value = 0;
  std::uint8_t kind = 0;  // Action::Kind
  std::uint8_t field = 0;
  std::uint8_t width_bits = 64;

  [[nodiscard]] Action unpack() const noexcept {
    return {static_cast<Action::Kind>(kind), static_cast<FieldId>(field),
            value, width_bits};
  }
};

/// View over one rule's span of the packed action pool; yields `Action`
/// by value.
class ActionRange {
 public:
  ActionRange() = default;
  ActionRange(const PackedAction* p, std::size_t count) noexcept
      : p_(p), count_(count) {}

  [[nodiscard]] std::size_t size() const noexcept { return count_; }
  [[nodiscard]] bool empty() const noexcept { return count_ == 0; }
  [[nodiscard]] Action operator[](std::size_t i) const noexcept {
    return p_[i].unpack();
  }

  class iterator {
   public:
    using value_type = Action;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    explicit iterator(const PackedAction* p) noexcept : p_(p) {}
    Action operator*() const noexcept { return p_->unpack(); }
    iterator& operator++() noexcept { ++p_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++p_; return t; }
    friend bool operator==(const iterator&, const iterator&) = default;
   private:
    const PackedAction* p_ = nullptr;
  };
  [[nodiscard]] iterator begin() const noexcept { return iterator(p_); }
  [[nodiscard]] iterator end() const noexcept {
    return iterator(p_ + count_);
  }

  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::vector<Action>() const {
    std::vector<Action> out;
    out.reserve(count_);
    for (std::size_t i = 0; i < count_; ++i) out.push_back((*this)[i]);
    return out;
  }

  friend bool operator==(const ActionRange& a, const ActionRange& b) noexcept {
    if (a.count_ != b.count_) return false;
    for (std::size_t i = 0; i < a.count_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }
  friend bool operator==(const ActionRange& a,
                         const std::vector<Action>& b) noexcept {
    if (a.count_ != b.size()) return false;
    for (std::size_t i = 0; i < a.count_; ++i) {
      if (a[i] != b[i]) return false;
    }
    return true;
  }

 private:
  const PackedAction* p_ = nullptr;
  std::size_t count_ = 0;
};

/// Proxy for one flattened rule, mirroring `Rule`'s members so consumer
/// code reads fields identically. Constructed on access (cheap);
/// invalidated by mutation of the owning FlatRules.
struct RuleView {
  std::uint32_t priority = 0;
  MatchRange matches;
  ActionRange actions;
  std::optional<std::size_t> goto_table;

  [[nodiscard]] bool matches_key(const FlowKey& key) const noexcept {
    return matches.matches_key(key);
  }

  [[nodiscard]] Rule to_rule() const {
    return {priority, matches, actions, goto_table};
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator Rule() const { return to_rule(); }

  friend bool operator==(const RuleView& a, const RuleView& b) noexcept {
    return a.priority == b.priority && a.goto_table == b.goto_table &&
           a.matches == b.matches && a.actions == b.actions;
  }
  friend bool operator==(const RuleView& a, const Rule& b) noexcept {
    return a.priority == b.priority && a.goto_table == b.goto_table &&
           a.matches == b.matches && a.actions == b.actions;
  }
};

/// Flattened rule container: SoA match pools (with masks interned into a
/// per-table dictionary — a 2-byte id per match) + packed action pool +
/// per-rule (offset, count) refs. Mutations append to the pools and
/// compact when erased spans accumulate; rule order is carried entirely
/// by the ref array, so a priority sort moves 20-byte refs, not rule
/// payloads. Equality is logical (per-rule content), independent of pool
/// layout, interning order, garbage, or revision.
///
/// Every instance carries a content revision: a process-unique number
/// that each constructor and each mutator draws afresh, and that a copy
/// shares with what it copied. A revision therefore names one content
/// for the life of the process: two FlatRules with the same revision hold
/// equal rules. (The converse does not hold: equal rules built apart have
/// different revisions.) A moved-from object is left empty under a
/// revision of its own.
class FlatRules {
 public:
  static constexpr std::size_t kNpos = ~std::size_t{0};

  FlatRules() = default;
  FlatRules(const FlatRules&) = default;
  FlatRules& operator=(const FlatRules&) = default;
  FlatRules(FlatRules&& other) noexcept { *this = std::move(other); }
  FlatRules& operator=(FlatRules&& other) noexcept;
  // NOLINTNEXTLINE(google-explicit-constructor): lets vector<Rule>
  // literals and aggregate TableSpec initializers keep working.
  FlatRules(const std::vector<Rule>& rules) {
    std::size_t matches = 0;
    std::size_t actions = 0;
    for (const Rule& r : rules) {
      matches += r.matches.size();
      actions += r.actions.size();
    }
    reserve(rules.size(), matches, actions);
    for (const Rule& r : rules) push_back(r);
  }
  FlatRules(std::initializer_list<Rule> rules) {
    reserve(rules.size());
    for (const Rule& r : rules) push_back(r);
  }

  [[nodiscard]] std::size_t size() const noexcept { return refs_.size(); }
  [[nodiscard]] bool empty() const noexcept { return refs_.empty(); }
  /// The content revision (never 0).
  [[nodiscard]] std::uint64_t revision() const noexcept { return revision_; }
  void clear() noexcept;
  /// Pre-sizes the ref array and, when the totals are known, the match
  /// and action pools — bulk builds then carry no growth slack.
  void reserve(std::size_t rules, std::size_t matches = 0,
               std::size_t actions = 0);

  [[nodiscard]] RuleView operator[](std::size_t i) const noexcept {
    const Ref& r = refs_[i];
    return {r.priority,
            MatchRange(mfield_.data() + r.match_off,
                       mvalue_.data() + r.match_off,
                       mmask_.data() + r.match_off, mask_pool_.data(),
                       r.match_count),
            ActionRange(acts_.data() + r.action_off, r.action_count),
            r.goto_plus1 == 0
                ? std::nullopt
                : std::optional<std::size_t>{r.goto_plus1 - 1}};
  }
  [[nodiscard]] RuleView front() const noexcept { return (*this)[0]; }
  [[nodiscard]] RuleView back() const noexcept {
    return (*this)[refs_.size() - 1];
  }

  [[nodiscard]] std::uint32_t priority_of(std::size_t i) const noexcept {
    return refs_[i].priority;
  }

  class iterator {
   public:
    using value_type = RuleView;
    using difference_type = std::ptrdiff_t;
    iterator() = default;
    iterator(const FlatRules* o, std::size_t i) noexcept : o_(o), i_(i) {}
    RuleView operator*() const noexcept { return (*o_)[i_]; }
    iterator& operator++() noexcept { ++i_; return *this; }
    iterator operator++(int) noexcept { iterator t = *this; ++i_; return t; }
    friend bool operator==(const iterator& a, const iterator& b) noexcept {
      return a.i_ == b.i_;
    }
   private:
    const FlatRules* o_ = nullptr;
    std::size_t i_ = 0;
  };
  [[nodiscard]] iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] iterator end() const noexcept { return {this, size()}; }

  /// Appends a rule built from pool-ready pieces (no boundary Rule).
  void append(std::uint32_t priority, std::span<const FieldMatch> matches,
              std::span<const Action> actions,
              std::optional<std::size_t> goto_table);
  void push_back(const Rule& r) {
    append(r.priority, r.matches, r.actions, r.goto_table);
  }

  /// Replaces the rule at `pos` in place (position and index stable).
  void replace(std::size_t pos, const Rule& r);
  /// Inserts before `pos`; positions at/after `pos` shift by one.
  void insert(std::size_t pos, const Rule& r);
  /// Erases the rules at `positions` (strictly ascending) in one pass;
  /// every later rule shifts down by the number of erased rules before
  /// it. A built match index stays valid without renumbering: the erased
  /// rules' slots die and their build positions are recorded in the
  /// index's removal map (until the removed share calls for a rebuild).
  void erase(std::span<const std::size_t> positions);
  void erase(std::size_t pos) { erase({&pos, 1}); }

  /// Inserts `r` where a stable priority-descending sort would place it
  /// (after existing equal-priority rules); returns the position.
  /// Requires the table to already be in compiled order.
  std::size_t insert_sorted(const Rule& r);
  /// Re-slots the (possibly just-replaced) rule at `pos` to the position
  /// a stable priority-descending sort would give it; returns the new
  /// position. O(shift) ref moves, pool payloads untouched.
  std::size_t reposition(std::size_t pos);

  /// Stable-sorts rule refs by priority descending (the compiled table
  /// order). Pool payloads do not move.
  void stable_sort_by_priority();

  /// Index of the first rule whose match vector equals `target`, or
  /// kNpos. Amortized O(1): a lazy open-addressing index over match
  /// vectors whose slots hold positions as of the index's last build,
  /// read through a util::BuildPositions removal map. It is
  /// point-maintained across replace/push_back/erase and rebuilt after
  /// insert, reposition and sort, and once removals pass a quarter of
  /// the built rules. Falls back to a linear scan when duplicate match
  /// vectors exist (first-match semantics).
  [[nodiscard]] std::size_t find_by_match(
      std::span<const FieldMatch> target) const;
  /// Builds the match index now if it is not current, so the next
  /// find_by_match does not pay for it.
  void build_match_index() const {
    if (index_dirty_) build_index();
  }

  /// Materializes the boundary representation (legacy layout).
  [[nodiscard]] std::vector<Rule> to_rules() const;

  /// Heap bytes of refs and pools (capacity-based, like the table's
  /// accounting), including pool garbage not yet compacted.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

  friend bool operator==(const FlatRules& a, const FlatRules& b) noexcept {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (!(a[i] == b[i])) return false;
    }
    return true;
  }

 private:
  struct Ref {
    std::uint32_t priority = 0;
    std::uint32_t match_off = 0;
    std::uint32_t action_off = 0;
    std::uint16_t match_count = 0;
    std::uint16_t action_count = 0;
    std::uint32_t goto_plus1 = 0;  // 0 = none
  };
  static_assert(sizeof(Ref) == 20);

  /// A revision no FlatRules has carried yet. Each thread draws from a
  /// private block of the process-wide sequence, so the bulk builds
  /// (one draw per append) touch no shared atomic.
  [[nodiscard]] static std::uint64_t next_revision() noexcept;

  void maybe_compact();
  void compact();
  [[nodiscard]] std::uint16_t intern_mask(std::uint64_t mask);
  [[nodiscard]] std::uint64_t hash_match_span(
      std::span<const FieldMatch> m) const noexcept;
  [[nodiscard]] std::uint64_t hash_rule_matches(std::size_t pos)
      const noexcept;
  void build_index() const;
  /// Adds the rule at live position `pos`, built at `build`.
  void index_insert(std::size_t pos, std::size_t build) const;
  /// Kills the slot of the rule at live position `pos`; returns its
  /// build position, or kNpos when no slot holds it (a shadowed
  /// duplicate).
  std::size_t index_remove(std::size_t pos) const;
  [[nodiscard]] bool match_equals(std::size_t pos,
                                  std::span<const FieldMatch> m)
      const noexcept;

  std::vector<Ref> refs_;
  std::vector<std::uint8_t> mfield_;
  std::vector<std::uint64_t> mvalue_;
  std::vector<std::uint16_t> mmask_;   // ids into mask_pool_
  std::vector<std::uint64_t> mask_pool_;  // interned distinct masks
  std::vector<PackedAction> acts_;
  std::size_t match_garbage_ = 0;
  std::size_t action_garbage_ = 0;
  std::uint64_t revision_ = next_revision();

  // Lazy match-vector index: slot = build position + 1, 0 empty, ~0
  // dead; index_positions_ maps build positions to live ones.
  mutable std::vector<std::uint32_t> index_;
  mutable util::BuildPositions index_positions_;
  mutable bool index_dirty_ = true;
  mutable bool index_dups_ = false;
  mutable std::size_t index_live_ = 0;
  mutable std::size_t index_dead_ = 0;
};

/// How a table's lookup should behave structurally (derived, not chosen).
enum class MatchProfile {
  kAllExact,       // every rule masks every declared field fully
  kSinglePrefix,   // exactly one field varies by prefix, rest exact
  kTernary,        // anything else
};

struct TableSpec {
  std::string name;
  /// Fields this table may match on (union over rules).
  std::vector<FieldId> fields;
  FlatRules rules;
  /// Default successor after a hit when the rule has no goto (linear
  /// chaining); nullopt ends the pipeline.
  std::optional<std::size_t> next;

  /// The table's structural profile. Under kSinglePrefix,
  /// `prefix_field` (when given) receives the field that varies by
  /// prefix; otherwise it is left as it was.
  [[nodiscard]] MatchProfile profile(
      FieldId* prefix_field = nullptr) const;
  friend bool operator==(const TableSpec&, const TableSpec&) = default;
};

struct Program {
  std::vector<TableSpec> tables;
  std::size_t entry = 0;

  [[nodiscard]] std::size_t total_rules() const noexcept;
  /// Heap bytes of all tables' flattened rule storage.
  [[nodiscard]] std::size_t rule_memory_bytes() const noexcept;
  friend bool operator==(const Program&, const Program&) = default;
};

/// Attribute-name → FieldId assignment a compilation settled on. Builtin
/// header names resolve implicitly; the map records the metadata-register
/// assignments (`meta.*` and other non-wire attributes). Re-lowering a
/// single row against the map (resolve_columns, then lower_row)
/// reproduces the compiler's output for that row, which is what the
/// incremental intent compiler patches with.
using FieldMap = std::map<std::string, FieldId, std::less<>>;

/// Lowers a core pipeline into a data-plane program.
/// Fails (kInvalidArgument) when an attribute name cannot be mapped and
/// no metadata register is free. When `field_map` is non-null it receives
/// the attribute→field assignment the compilation used.
[[nodiscard]] Result<Program> compile(const core::Pipeline& pipeline,
                                      FieldMap* field_map = nullptr);

/// Column → field assignment of `schema` under `field_map`: builtin
/// header names resolve implicitly, every other attribute name must be in
/// the map (kInvalidArgument otherwise). Resolve a schema once, then
/// lower its rows through lower_row.
[[nodiscard]] Result<std::vector<FieldId>> resolve_columns(
    const core::Schema& schema, const FieldMap& field_map);

/// One lowered row: reusable scratch, so lowering row after row into it
/// allocates nothing per row.
struct LoweredRow {
  std::uint32_t priority = 0;
  util::SmallVector<FieldMatch, 8> matches;
  util::SmallVector<Action, 4> actions;

  /// The row as a boundary Rule with the given goto target.
  [[nodiscard]] Rule to_rule(std::optional<std::size_t> goto_table) const;
};

/// Lowers one row of `schema` into `out` exactly as compile() does:
/// masked matches in match-column order, specificity priority, actions in
/// action-column order ("out" → output action). `col_field` is the
/// schema's column → field assignment (resolve_columns).
void lower_row(const core::Schema& schema, std::span<const core::Value> row,
               std::span<const FieldId> col_field, LoweredRow& out);

/// Result of pushing one packet through a switch model.
struct ExecResult {
  bool hit = false;
  std::uint64_t out_port = 0;
  std::uint32_t tables_visited = 0;
};

/// (table index, rule index) of one matched entry along an execution.
struct MatchedRule {
  std::size_t table = 0;
  std::size_t rule = 0;
};

/// Per-packet matched-rule scratch: one entry per pipeline stage, inline
/// up to 8 stages (deeper than any program the compiler emits), heap
/// beyond — so the counter path never allocates per packet.
using MatchedBuf = util::SmallVector<MatchedRule, 8>;

/// Reference executor: straightforward interpretation of the program
/// (linear scans). Switch models must agree with this on every packet.
/// When `matched` is non-null it receives the (table, rule) pairs the
/// packet hit, in order.
[[nodiscard]] ExecResult execute_reference(const Program& program,
                                           const FlowKey& key,
                                           MatchedBuf* matched = nullptr);

}  // namespace maton::dp

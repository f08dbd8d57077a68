// dp::Program front-end: translates lowered programs (priorities, masks,
// goto/next edges, miss-drop) into bit-universe diagrams and decides
// equivalence on the (hit, out_port) observable of execute_reference.
#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <numeric>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/symbolic/engine.hpp"
#include "analysis/symbolic/internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"

namespace maton::analysis::symbolic {
namespace {

using dp::FieldId;

// Variable-order heuristic. Metadata registers come first so a set-field
// during composition substitutes at the successor diagram's root in
// O(register width) instead of rebuilding the whole header spine below
// it; then high-cardinality destination-side exact fields (VIP, port)
// before coarse source-side prefix fields — a low-information field near
// the root duplicates every distinct subfunction beneath it.
constexpr std::array<std::uint32_t, dp::kNumFields> kFieldRank = {
    4,   // kInPort
    14,  // kEthSrc
    13,  // kEthDst
    5,   // kEthType
    6,   // kVlan
    12,  // kIpSrc
    7,   // kIpDst
    10,  // kIpProto
    11,  // kIpTtl
    9,   // kTcpSrc
    8,   // kTcpDst
    0,   // kMeta0
    1,   // kMeta1
    2,   // kMeta2
    3,   // kMeta3
};

/// Inverse of kFieldRank: the field index at each rank.
constexpr std::array<std::size_t, dp::kNumFields> kFieldAtRank = [] {
  std::array<std::size_t, dp::kNumFields> at{};
  for (std::size_t f = 0; f < dp::kNumFields; ++f) at[kFieldRank[f]] = f;
  return at;
}();

/// var = rank * 64 + MSB-first bit offset: all 64 value bits of every
/// field are modeled, so masks reaching past the wire width still
/// translate exactly.
FieldId field_of_rank(std::uint32_t rank) {
  expects(rank < dp::kNumFields, "unmapped diagram variable rank");
  return static_cast<FieldId>(kFieldAtRank[rank]);
}

constexpr std::uint64_t kVerdictTag = std::uint64_t{1} << 63;

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  h ^= v * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 32;
  h *= 0xd6e8feb86659fd93ULL;
  h ^= h >> 32;
  return h;
}

/// Interned observable of one program execution. kHitUnset (hit, no
/// output action applied) is kept distinct during construction and
/// normalized to kHit/out=0 at each program root, matching
/// execute_reference's zero-initialized out_port. Payloads do not name
/// NodeIds, so they survive store compactions and resets.
class DpVerdicts {
 public:
  enum State : int { kMiss = 0, kHitUnset = 1, kHit = 2 };

  std::uint64_t payload(int state, std::uint64_t out) {
    const std::pair<int, std::uint64_t> v{state, out};
    const std::size_t mask = slots_.size() - 1;
    std::size_t slot = slot_of(v) & mask;
    for (; slots_[slot] != kEmpty; slot = (slot + 1) & mask) {
      if (table_[slots_[slot]] == v) return kVerdictTag | slots_[slot];
    }
    const auto id = static_cast<std::uint32_t>(table_.size());
    table_.push_back(v);
    slots_[slot] = id;
    if (table_.size() * 2 > slots_.size()) {
      // Rehash at double size; at most half full keeps probes short.
      slots_.assign(slots_.size() * 2, kEmpty);
      for (std::uint32_t i = 0; i < table_.size(); ++i) {
        std::size_t s = slot_of(table_[i]) & (slots_.size() - 1);
        while (slots_[s] != kEmpty) s = (s + 1) & (slots_.size() - 1);
        slots_[s] = i;
      }
    }
    return kVerdictTag | id;
  }
  [[nodiscard]] std::pair<int, std::uint64_t> of(std::uint64_t p) const {
    return table_[p & ~kVerdictTag];
  }

 private:
  static constexpr std::uint32_t kEmpty = 0xffffffffu;
  static std::size_t slot_of(const std::pair<int, std::uint64_t>& v) {
    return static_cast<std::size_t>(
        mix(static_cast<std::uint64_t>(v.first), v.second));
  }

  std::vector<std::pair<int, std::uint64_t>> table_;
  /// Open-addressed index into table_ keyed on (state, out).
  std::vector<std::uint32_t> slots_ = std::vector<std::uint32_t>(16, kEmpty);
};

/// Ternary cube of a satisfiable region, in ascending-var order.
void cube(const dp::MatchRegion& region, std::vector<CubeBit>& out) {
  out.clear();
  for (std::uint32_t rank = 0; rank < dp::kNumFields; ++rank) {
    const std::size_t f = kFieldAtRank[rank];
    if ((region.matched >> f & 1u) == 0) continue;
    for (std::uint64_t rest = region.mask[f]; rest != 0;) {
      const auto bit = static_cast<unsigned>(63 - std::countl_zero(rest));
      out.push_back(
          {rank * 64 + (63 - bit), ((region.value[f] >> bit) & 1) != 0});
      rest &= ~(std::uint64_t{1} << bit);
    }
  }
}

/// One cached table diagram: the key it was folded from and its root.
struct TableEntry {
  /// Per satisfiable rule, in scan order, a record: a (match, action)
  /// count word, (field, value, mask) per match and (kind|field|width,
  /// value) per action. Then, one word per record, the rule's successor
  /// diagram (kInvalidNode: the pipeline ends).
  std::vector<std::uint64_t> key;
  std::vector<std::uint32_t> records;  ///< offset of each record in key
  NodeId root = kInvalidNode;
  std::uint32_t epoch = 0;  ///< last check that used the entry
  /// Distinct per write of the entry, so a TableSlot can tell the entry
  /// it recorded from one a colliding key put in its place.
  std::uint64_t generation = 0;

  [[nodiscard]] std::size_t succ_begin() const {
    return key.size() - records.size();
  }
  /// Words of record `i`, without its successor.
  [[nodiscard]] std::span<const std::uint64_t> record(std::size_t i) const {
    const std::size_t end =
        i + 1 < records.size() ? records[i + 1] : succ_begin();
    return std::span(key).subspan(records[i], end - records[i]);
  }
  [[nodiscard]] bool same_rule(std::size_t i, const TableEntry& o,
                               std::size_t j) const {
    const auto a = record(i);
    const auto b = o.record(j);
    return key[succ_begin() + i] == o.key[o.succ_begin() + j] &&
           std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  /// Match region of record `i` (satisfiable by construction).
  [[nodiscard]] dp::MatchRegion region(std::size_t i) const {
    const auto words = record(i);
    dp::MatchRegion r;
    for (std::size_t m = 0; m < (words[0] & 0xffffffffu); ++m) {
      r.add({static_cast<FieldId>(words[1 + 3 * m]), words[2 + 3 * m],
             words[3 + 3 * m]});
    }
    return r;
  }
};

/// What one table position of one side used in the previous check: the
/// revision and default successor of its rules, each record's successor
/// table, and the cache entry (hash, generation) it resolved to. A table
/// with the same revision and successor holds the same rules, so its key
/// differs from that entry's only if a successor diagram changed.
struct TableSlot {
  static constexpr std::uint32_t kNoSuccessor = 0xffffffffu;

  std::uint64_t revision = 0;  ///< 0: no table recorded (never drawn)
  std::optional<std::size_t> next;
  std::vector<std::uint32_t> successors;  ///< per record, or kNoSuccessor
  std::uint64_t hash = 0;
  std::uint64_t generation = 0;
};

}  // namespace

struct ProgramProver::State {
  explicit State(const Options& opts) : options(opts) {}

  /// Compacts the store to the cached diagrams once it has grown to more
  /// than kCompactGrowth times its size after the last compaction.
  void maintain();
  /// Drops the store and the table cache; the next check is cold.
  void reset() {
    store.reset();
    tables.clear();
    live_nodes = 0;
  }
  /// One proof attempt in the current store (created if absent).
  Result prove(const dp::Program& a, const dp::Program& b);

  /// A warm store is compacted once it has doubled.
  static constexpr std::size_t kCompactGrowth = 2;

  Options options;
  std::optional<DiagramStore> store;
  DpVerdicts verdicts;
  /// Table cache by the hash of a key's rule records (successor words
  /// are compared, not hashed, so compaction leaves hashes valid); a
  /// colliding key replaces the entry.
  std::unordered_map<std::uint64_t, TableEntry> tables;
  /// Source of TableEntry::generation; never reset, so a slot cannot
  /// mistake an entry made after a store reset for the one it recorded.
  std::uint64_t generations = 0;
  /// slots[side][t]: what table t of the left (0) or right (1) program
  /// used in the previous check. Its entry is the base a changed table is
  /// patched from.
  std::array<std::vector<TableSlot>, 2> slots;
  std::uint32_t epoch = 0;
  /// Store size after the last compaction (0: none yet).
  std::size_t live_nodes = 0;
  /// maintain()'s root list, kept between compactions.
  std::vector<NodeId> roots;
  std::size_t resets = 0;
  /// Tallies of the check in progress, before the current attempt.
  StoreStats spent;
  /// Store tallies when the current attempt began (zero for a new store,
  /// whose boolean leaves are part of the attempt's work).
  StoreStats attempt_start;
};

namespace {

class ProgramTranslator {
 public:
  ProgramTranslator(ProgramProver::State& prover, const dp::Program& program,
                    std::size_t side)
      : prover_(prover),
        dd_(*prover.store),
        verdicts_(prover.verdicts),
        program_(program),
        slots_(prover.slots[side]),
        memo_(program.tables.size(), kInvalidNode),
        visiting_(program.tables.size(), 0) {
    slots_.resize(program.tables.size());
  }

  /// Diagram of the whole program before the kHitUnset normalization.
  NodeId raw_root() {
    if (program_.tables.empty()) return miss();
    check_target(program_.entry);
    return table_diagram(program_.entry);
  }

 private:
  /// A changed table is patched from its previous version while at most
  /// 1/kPatchFraction of its rules differ, and folded in full otherwise.
  static constexpr std::size_t kPatchFraction = 2;

  NodeId miss() { return dd_.leaf(verdicts_.payload(DpVerdicts::kMiss, 0)); }

  void check_target(std::size_t table) const {
    if (table >= program_.tables.size()) {
      throw detail::TranslationBail{"program jump out of range"};
    }
  }

  std::optional<std::size_t> successor(const dp::TableSpec& spec,
                                       const dp::RuleView& rule) const {
    const std::optional<std::size_t> next =
        rule.goto_table.has_value() ? rule.goto_table : spec.next;
    if (next.has_value()) check_target(*next);
    return next;
  }

  NodeId table_diagram(std::size_t ti) {
    if (memo_[ti] != kInvalidNode) return memo_[ti];
    if (visiting_[ti] != 0) {
      throw detail::TranslationBail{"program table graph contains a cycle"};
    }
    visiting_[ti] = 1;
    const dp::TableSpec& spec = program_.tables[ti];
    NodeId root = slot_diagram(spec, slots_[ti]);
    if (root == kInvalidNode) root = keyed_diagram(spec, slots_[ti]);
    visiting_[ti] = 0;
    memo_[ti] = root;
    return root;
  }

  /// The slot's cached entry when `spec` still holds the rules the slot
  /// recorded (same revision and default successor); kInvalidNode
  /// otherwise. Builds no key: the successor diagrams are compared with
  /// the entry's successor words, and an entry some of whose words
  /// differ is patched in place for them (successor_patch).
  NodeId slot_diagram(const dp::TableSpec& spec, const TableSlot& slot) {
    if (slot.revision != spec.rules.revision() || slot.next != spec.next) {
      return kInvalidNode;
    }
    const auto it = prover_.tables.find(slot.hash);
    if (it == prover_.tables.end() ||
        it->second.generation != slot.generation) {
      return kInvalidNode;
    }
    // A reference, not the iterator: translating the successors may insert
    // into the cache (a rehash keeps elements in place) or overwrite this
    // entry with a colliding key (a new generation).
    TableEntry& entry = it->second;
    // Successors first, in record order, as on the keyed path.
    for (const std::uint32_t next : slot.successors) {
      if (next == TableSlot::kNoSuccessor) continue;
      check_target(next);
      table_diagram(next);
    }
    if (entry.generation != slot.generation) return kInvalidNode;
    stale_.clear();
    const std::size_t base = entry.succ_begin();
    for (std::size_t i = 0; i < slot.successors.size(); ++i) {
      const std::uint32_t next = slot.successors[i];
      const NodeId want =
          next == TableSlot::kNoSuccessor ? kInvalidNode : memo_[next];
      if (entry.key[base + i] != want) stale_.emplace_back(i, want);
    }
    entry.epoch = prover_.epoch;
    if (stale_.empty()) {
      ++prover_.spent.table_hits;
      return entry.root;
    }
    return successor_patch(spec, entry);
  }

  /// Re-targets `entry`, whose records are `spec`'s satisfiable rules,
  /// onto the successor diagrams of the records in stale_: only those
  /// records' continuations changed, so the table is patched inside their
  /// regions, and their successor words are rewritten. The records are
  /// unchanged, so the entry keeps its hash and generation, and a slot of
  /// the other side that resolves it compares words as before.
  NodeId successor_patch(const dp::TableSpec& spec, TableEntry& entry) {
    ++prover_.spent.table_misses;
    ++prover_.spent.successor_patches;
    rules_.clear();
    for (std::size_t i = 0; i < spec.rules.size(); ++i) {
      if (dp::MatchRegion::of(spec.rules[i].matches).satisfiable) {
        rules_.push_back(i);
      }
    }
    expects(rules_.size() == entry.records.size(),
            "successor patch: the table's rules are not the entry's");
    changed_.clear();
    for (const auto& [i, want] : stale_) changed_.push_back(entry.region(i));
    entry.root = refold(spec, entry, entry.root);
    const std::size_t base = entry.succ_begin();
    for (const auto& [i, want] : stale_) entry.key[base + i] = want;
    return entry.root;
  }

  /// The content-addressed path: builds `spec`'s key, reuses an equal
  /// cached entry or patches/folds a new one, and records the result in
  /// `slot`.
  NodeId keyed_diagram(const dp::TableSpec& spec, TableSlot& slot) {
    // Successors first: the cache key names their diagrams.
    for (const dp::RuleView rule : spec.rules) {
      if (!dp::MatchRegion::of(rule.matches).satisfiable) continue;
      if (const auto next = successor(spec, rule)) table_diagram(*next);
    }
    const std::uint64_t hash = build_key(spec);
    NodeId root = kInvalidNode;
    std::uint64_t generation = 0;
    const auto hit = prover_.tables.find(hash);
    if (hit != prover_.tables.end() && hit->second.key == entry_.key) {
      ++prover_.spent.table_hits;
      root = hit->second.root;
      hit->second.epoch = prover_.epoch;
      generation = hit->second.generation;
    } else {
      ++prover_.spent.table_misses;
      const auto base = prover_.tables.find(slot.hash);
      root = base != prover_.tables.end() ? patch(spec, base->second)
                                          : fold_all(spec, entry_);
      // Copies, so the scratch keeps its capacity for the next key.
      TableEntry& entry = prover_.tables[hash];
      entry.key = entry_.key;
      entry.records = entry_.records;
      entry.root = root;
      entry.epoch = prover_.epoch;
      entry.generation = generation = ++prover_.generations;
    }
    slot.revision = spec.rules.revision();
    slot.next = spec.next;
    slot.successors.clear();
    for (const std::size_t index : rules_) {
      const auto next = successor(spec, spec.rules[index]);
      slot.successors.push_back(next.has_value()
                                    ? static_cast<std::uint32_t>(*next)
                                    : TableSlot::kNoSuccessor);
    }
    slot.hash = hash;
    slot.generation = generation;
    return root;
  }

  /// Writes `spec`'s cache key into entry_, its satisfiable rules into
  /// rules_ (successors already translated), and returns the hash of the
  /// key's rule records.
  std::uint64_t build_key(const dp::TableSpec& spec) {
    ++prover_.spent.tables_keyed;
    std::vector<std::uint64_t>& key = entry_.key;
    key.clear();
    entry_.records.clear();
    rules_.clear();
    for (std::size_t i = 0; i < spec.rules.size(); ++i) {
      const dp::RuleView rule = spec.rules[i];
      if (!dp::MatchRegion::of(rule.matches).satisfiable) {
        continue;  // can never match
      }
      rules_.push_back(i);
      entry_.records.push_back(static_cast<std::uint32_t>(key.size()));
      key.push_back(rule.matches.size() | (rule.actions.size() << 32));
      for (const dp::FieldMatch m : rule.matches) {
        key.push_back(dp::field_index(m.field));
        key.push_back(m.value);
        key.push_back(m.mask);
      }
      for (const dp::Action a : rule.actions) {
        key.push_back(static_cast<std::uint64_t>(a.kind) |
                      (std::uint64_t{dp::field_index(a.field)} << 8) |
                      (std::uint64_t{a.width_bits} << 16));
        key.push_back(a.value);
      }
    }
    std::uint64_t hash = key.size();
    for (const std::uint64_t word : key) hash = mix(hash, word);
    for (const std::size_t index : rules_) {
      const auto next = successor(spec, spec.rules[index]);
      key.push_back(next.has_value() ? memo_[*next] : kInvalidNode);
    }
    return hash;
  }

  /// The table's diagram from its previous version `base`: the rules the
  /// two share at the front and back keep their order and continuations,
  /// so only the rules in between changed (refold).
  NodeId patch(const dp::TableSpec& spec, const TableEntry& base) {
    const std::size_t n = rules_.size();
    const std::size_t nb = base.records.size();
    std::size_t front = 0;
    while (front < n && front < nb && base.same_rule(front, entry_, front)) {
      ++front;
    }
    std::size_t back = 0;
    while (back < n - front && back < nb - front &&
           base.same_rule(nb - 1 - back, entry_, n - 1 - back)) {
      ++back;
    }
    changed_.clear();
    for (std::size_t i = front; i < nb - back; ++i) {
      changed_.push_back(base.region(i));
    }
    for (std::size_t i = front; i < n - back; ++i) {
      changed_.push_back(entry_.region(i));
    }
    return refold(spec, entry_, base.root);
  }

  /// The diagram of the table whose satisfiable rules are `records` (spec
  /// positions in rules_), given `outside`, its function outside the
  /// region R of the changed rules' regions in changed_. Inside R only the
  /// records that meet R can match, so the result is ite(R, fold of
  /// those records, outside); canonicity makes it the NodeId a full fold
  /// would give. Once more than 1/kPatchFraction of the records changed,
  /// the table is folded in full instead.
  NodeId refold(const dp::TableSpec& spec, const TableEntry& records,
                NodeId outside) {
    const std::size_t n = rules_.size();
    if (kPatchFraction * changed_.size() > n) return fold_all(spec, records);
    NodeId inside = dd_.false_leaf();
    for (const dp::MatchRegion& r : changed_) {
      cube(r, cube_);
      inside = dd_.b_or(inside, dd_.cube(cube_));
    }
    // Only the records that can match inside R, in scan order.
    kept_.clear();
    for (std::size_t i = 0; i < n; ++i) {
      const dp::MatchRegion r = records.region(i);
      if (std::any_of(
              changed_.begin(), changed_.end(),
              [&r](const dp::MatchRegion& c) { return c.intersects(r); })) {
        kept_.push_back(i);
      }
    }
    return dd_.ite(inside, fold(spec, records, kept_), outside);
  }

  /// First-match fold of the given records (ascending positions in
  /// rules_): stored order is the scan order, so insert rules
  /// back-to-front and let each earlier rule's cube overwrite.
  NodeId fold(const dp::TableSpec& spec, const TableEntry& records,
              std::span<const std::size_t> kept) {
    NodeId acc = miss();
    for (std::size_t k = kept.size(); k-- > 0;) {
      const std::size_t i = kept[k];
      cube(records.region(i), cube_);
      acc = dd_.ite(dd_.cube(cube_), continuation(spec, spec.rules[rules_[i]]),
                    acc);
    }
    return acc;
  }

  /// fold() over every record.
  NodeId fold_all(const dp::TableSpec& spec, const TableEntry& records) {
    kept_.resize(rules_.size());
    std::iota(kept_.begin(), kept_.end(), std::size_t{0});
    return fold(spec, records, kept_);
  }

  /// Diagram of "this rule hit": successor program transformed by the
  /// rule's actions, applied in reverse so earlier writes see the
  /// downstream function they feed.
  NodeId continuation(const dp::TableSpec& spec, const dp::RuleView& rule) {
    const std::optional<std::size_t> next = successor(spec, rule);
    NodeId c = next.has_value()
                   ? memo_[*next]
                   : dd_.leaf(verdicts_.payload(DpVerdicts::kHitUnset, 0));
    for (std::size_t j = rule.actions.size(); j-- > 0;) {
      const dp::Action action = rule.actions[j];
      if (action.kind == dp::Action::Kind::kOutput) {
        // Applies only where no later output took effect; a downstream
        // miss still drops the packet (miss leaves stay miss).
        c = dd_.map_leaves(c, [this, &action](std::uint64_t p) {
          return verdicts_.of(p).first == DpVerdicts::kHitUnset
                     ? verdicts_.payload(DpVerdicts::kHit, action.value)
                     : p;
        });
      } else {
        // set-field: the downstream function sees `value` on all 64
        // bits of the register (execute_reference stores the full
        // value).
        const std::uint32_t base =
            kFieldRank[dp::field_index(action.field)] * 64;
        const std::uint64_t value = action.value;
        c = dd_.restrict_with(
            c, [base, value](std::uint32_t var)
                   -> std::optional<std::uint64_t> {
              if (var < base || var >= base + 64) return std::nullopt;
              return (value >> (63 - (var - base))) & 1;
            });
      }
    }
    return c;
  }

  ProgramProver::State& prover_;
  DiagramStore& dd_;
  DpVerdicts& verdicts_;
  const dp::Program& program_;
  std::vector<TableSlot>& slots_;     ///< this side's State::slots
  std::vector<NodeId> memo_;          ///< this program's table diagrams
  std::vector<char> visiting_;
  // Scratch of the table being keyed and folded (successors are
  // translated before it is filled).
  TableEntry entry_;
  std::vector<std::size_t> rules_;  ///< spec index of each record
  /// Records whose successor diagram moved, with the new diagram.
  std::vector<std::pair<std::size_t, NodeId>> stale_;
  std::vector<dp::MatchRegion> changed_;  ///< regions of the changed rules
  std::vector<std::size_t> kept_;   ///< records a fold inserts
  std::vector<CubeBit> cube_;
};

dp::FlowKey key_from_path(std::span<const PathStep> path) {
  dp::FlowKey key;
  std::array<std::uint64_t, dp::kNumFields> values{};
  for (const PathStep& step : path) {
    // Bit universe: every step is a concrete 0/1 branch.
    if (step.branch == 0) continue;
    const FieldId field = field_of_rank(step.var / 64);
    values[dp::field_index(field)] |= std::uint64_t{1}
                                      << (63 - (step.var % 64));
  }
  for (std::size_t f = 0; f < dp::kNumFields; ++f) {
    key.set(static_cast<FieldId>(f), values[f]);
  }
  return key;
}

std::string describe_exec(const dp::ExecResult& r) {
  if (!r.hit) return "miss";
  return "hit out=" + std::to_string(r.out_port);
}

std::string describe_key(const dp::FlowKey& key) {
  std::ostringstream os;
  os << "key{";
  bool first = true;
  for (std::size_t f = 0; f < dp::kNumFields; ++f) {
    if (key.values[f] == 0) continue;
    if (!first) os << ", ";
    first = false;
    os << dp::to_string(static_cast<FieldId>(f)) << "=0x" << std::hex
       << key.values[f] << std::dec;
  }
  os << "}";
  return os.str();
}

}  // namespace

void ProgramProver::State::maintain() {
  if (!store.has_value() || store->num_nodes() <= live_nodes * kCompactGrowth) {
    return;
  }
  static obs::Counter& compactions = obs::MetricRegistry::global().counter(
      "maton_symbolic_store_resets_total", {{"cause", "compact"}});
  static obs::Histogram& compact_ns =
      obs::MetricRegistry::global().histogram("maton_symbolic_compact_ns");
  const auto start = std::chrono::steady_clock::now();
  roots.clear();
  for (const auto& [hash, entry] : tables) {
    roots.push_back(entry.root);
    for (std::size_t i = entry.succ_begin(); i < entry.key.size(); ++i) {
      if (entry.key[i] != kInvalidNode) {
        roots.push_back(static_cast<NodeId>(entry.key[i]));
      }
    }
  }
  store->compact(roots);
  std::size_t next = 0;
  for (auto& [hash, entry] : tables) {
    entry.root = roots[next++];
    for (std::size_t i = entry.succ_begin(); i < entry.key.size(); ++i) {
      if (entry.key[i] != kInvalidNode) entry.key[i] = roots[next++];
    }
  }
  live_nodes = store->num_nodes();
  compactions.add();
  compact_ns.observe(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count()));
}

Result ProgramProver::State::prove(const dp::Program& a,
                                   const dp::Program& b) {
  const bool cold = !store.has_value();
  if (cold) store.emplace(options.max_nodes);
  attempt_start = cold ? StoreStats{} : store->stats();
  DiagramStore& dd = *store;
  const NodeId raw_a = ProgramTranslator(*this, a, 0).raw_root();
  const NodeId raw_b = ProgramTranslator(*this, b, 1).raw_root();
  Result result;
  if (raw_a == raw_b) {
    // Equal raw roots normalize to equal roots.
    result.outcome = Outcome::kEquivalent;
    return result;
  }
  const auto normalize = [&](NodeId raw) {
    return dd.map_leaves(raw, [this](std::uint64_t p) {
      return verdicts.of(p).first == DpVerdicts::kHitUnset
                 ? verdicts.payload(DpVerdicts::kHit, 0)
                 : p;
    });
  };
  const NodeId ra = normalize(raw_a);
  const NodeId rb = normalize(raw_b);
  if (ra == rb) {
    result.outcome = Outcome::kEquivalent;
    return result;
  }
  const auto div = dd.first_divergence(ra, rb);
  ensures(div.has_value(), "divergent roots without a divergence");
  const dp::FlowKey key = key_from_path(div->path);
  const dp::ExecResult ea = dp::execute_reference(a, key);
  const dp::ExecResult eb = dp::execute_reference(b, key);
  if (ea.hit == eb.hit && (!ea.hit || ea.out_port == eb.out_port)) {
    // The diagrams disagree but the interpreter does not: report no
    // verdict rather than a wrong one.
    result.outcome = Outcome::kUnknown;
    result.note = "counterexample failed scalar confirmation";
    return result;
  }
  result.outcome = Outcome::kInequivalent;
  Counterexample cex;
  cex.key = key;
  cex.description = describe_key(key) + " -> left " + describe_exec(ea) +
                    " vs right " + describe_exec(eb);
  result.counterexample = std::move(cex);
  return result;
}

ProgramProver::ProgramProver(const Options& options)
    : state_(std::make_unique<State>(options)) {}
ProgramProver::~ProgramProver() = default;
ProgramProver::ProgramProver(ProgramProver&&) noexcept = default;
ProgramProver& ProgramProver::operator=(ProgramProver&&) noexcept = default;

std::size_t ProgramProver::store_nodes() const noexcept {
  return state_->store.has_value() ? state_->store->num_nodes() : 0;
}

std::size_t ProgramProver::resets() const noexcept { return state_->resets; }

Result ProgramProver::check(const dp::Program& a, const dp::Program& b) {
  static const detail::SolveCounters counters("programs");
  static obs::Counter& overflow_resets = obs::MetricRegistry::global().counter(
      "maton_symbolic_store_resets_total", {{"cause", "overflow"}});
  const obs::TraceSpan span("symbolic_solve");
  State& st = *state_;
  st.maintain();
  ++st.epoch;
  st.spent = {};
  const auto attempt_stats = [&st] {
    const StoreStats& now = st.store->stats();
    st.spent.nodes += now.nodes - st.attempt_start.nodes;
    st.spent.memo_hits += now.memo_hits - st.attempt_start.memo_hits;
    st.spent.memo_lookups += now.memo_lookups - st.attempt_start.memo_lookups;
  };
  bool overflowed = false;
  Result result = detail::guarded(st.options, [&] {
    while (true) {
      const bool warm = st.store.has_value();
      try {
        return st.prove(a, b);
      } catch (const NodeBudgetExceeded&) {
        attempt_stats();
        if (!warm) {
          overflowed = true;
          throw;
        }
      }
      // A warm store carries garbage a fresh proof would not make: retry
      // from empty, where only an overflow is kUnknown.
      st.reset();
      ++st.resets;
      overflow_resets.add();
    }
  });
  if (overflowed) {
    st.reset();  // a store at its budget is no use to the next check
  } else {
    attempt_stats();
    std::erase_if(st.tables, [&st](const auto& kv) {
      return kv.second.epoch != st.epoch;
    });
  }
  result.stats = st.spent;
  detail::record(counters, result);
  return result;
}

Result check_programs(const dp::Program& a, const dp::Program& b,
                      const Options& options) {
  return ProgramProver(options).check(a, b);
}

SliceRelation slices_relation(std::span<const dp::Rule> a,
                              std::span<const dp::Rule> b) {
  const obs::TraceSpan span("symbolic_solve");
  // Each rule's region is one cube, so two unions of cubes meet exactly
  // when some pair of their cubes does: no diagram store is needed. An
  // unsatisfiable rule can never match and intersects nothing.
  const auto regions = [](std::span<const dp::Rule> rules) {
    std::vector<dp::MatchRegion> out;
    out.reserve(rules.size());
    for (const dp::Rule& rule : rules) {
      out.push_back(dp::MatchRegion::of(rule.matches));
    }
    return out;
  };
  const std::vector<dp::MatchRegion> left = regions(a);
  const std::vector<dp::MatchRegion> right = regions(b);
  const bool meet =
      std::any_of(left.begin(), left.end(), [&](const dp::MatchRegion& l) {
        return std::any_of(
            right.begin(), right.end(),
            [&](const dp::MatchRegion& r) { return l.intersects(r); });
      });
  const SliceRelation relation =
      meet ? SliceRelation::kIntersecting : SliceRelation::kDisjoint;
  // maton_symbolic_solves_total{check="slices"}, one counter per relation.
  static const std::array<obs::Counter*, 2> solves = [] {
    std::array<obs::Counter*, 2> by_relation{};
    for (const SliceRelation r :
         {SliceRelation::kDisjoint, SliceRelation::kIntersecting}) {
      by_relation[static_cast<std::size_t>(r)] =
          &obs::MetricRegistry::global().counter(
              "maton_symbolic_solves_total",
              {{"check", "slices"}, {"outcome", std::string(to_string(r))}});
    }
    return by_relation;
  }();
  solves[static_cast<std::size_t>(relation)]->add(1);
  return relation;
}

}  // namespace maton::analysis::symbolic

#include "dataplane/program.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <map>
#include <numeric>

#include "dataplane/classifier_detail.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"
#include "util/sorted_erase.hpp"

namespace maton::dp {

namespace {

[[nodiscard]] constexpr std::uint64_t full_mask(FieldId field) noexcept {
  return field_full_mask(field);
}

/// True when `mask` is a prefix mask within the field's width
/// (contiguous high ones, contiguous low zeros).
[[nodiscard]] bool is_prefix_mask(FieldId field, std::uint64_t mask) {
  const std::uint64_t full = full_mask(field);
  if ((mask & ~full) != 0) return false;
  const std::uint64_t low_zeros = ~mask & full;
  return (low_zeros & (low_zeros + 1)) == 0;
}

/// Maps well-known attribute names onto wire fields.
std::optional<FieldId> builtin_field(std::string_view name) {
  if (name == "in_port") return FieldId::kInPort;
  if (name == "eth_src" || name == "mod_smac") return FieldId::kEthSrc;
  if (name == "eth_dst" || name == "mod_dmac") return FieldId::kEthDst;
  if (name == "eth_type") return FieldId::kEthType;
  if (name == "vlan") return FieldId::kVlan;
  if (name == "ip_src") return FieldId::kIpSrc;
  if (name == "ip_dst") return FieldId::kIpDst;
  if (name == "ip_proto") return FieldId::kIpProto;
  if (name == "ip_ttl" || name == "mod_ttl") return FieldId::kIpTtl;
  if (name == "tcp_src") return FieldId::kTcpSrc;
  if (name == "tcp_dst") return FieldId::kTcpDst;
  return std::nullopt;
}

/// Attribute-name → FieldId assignment shared across the whole program,
/// allocating metadata registers for names without a wire field.
class FieldAllocator {
 public:
  Result<FieldId> resolve(const std::string& name) {
    if (const auto builtin = builtin_field(name)) return *builtin;
    const auto it = assigned_.find(name);
    if (it != assigned_.end()) return it->second;
    if (next_meta_ > field_index(FieldId::kMeta3)) {
      return invalid_argument(
          "out of metadata registers for attribute '" + name + "'");
    }
    const FieldId id = static_cast<FieldId>(next_meta_++);
    assigned_.emplace(name, id);
    return id;
  }

  [[nodiscard]] const FieldMap& assigned() const noexcept {
    return assigned_;
  }

 private:
  FieldMap assigned_;
  std::size_t next_meta_ = field_index(FieldId::kMeta0);
};

/// Converts one core cell into a masked match according to its codec.
FieldMatch lower_match(FieldId field, const core::Attribute& attr,
                       core::Value v) {
  FieldMatch m;
  m.field = field;
  if (attr.codec == core::ValueCodec::kIpv4Prefix) {
    const auto addr = static_cast<std::uint32_t>(v >> 8);
    const unsigned plen = static_cast<unsigned>(v & 0xff);
    const unsigned width = field_width(field);
    expects(plen <= width, "prefix length exceeds field width");
    m.mask = plen == 0
                 ? 0
                 : (full_mask(field) << (width - plen)) & full_mask(field);
    m.value = addr & m.mask;
  } else {
    m.mask = full_mask(field);
    m.value = v & m.mask;
  }
  return m;
}

/// One stage → one table, given the pre-resolved column→field assignment
/// and the stage → table index map.
TableSpec lower_stage_resolved(const core::Stage& stage,
                               const std::vector<FieldId>& col_field,
                               std::span<const std::size_t> remap) {
  const auto table_index = [remap](std::size_t si) { return remap[si]; };
  const core::Schema& schema = stage.table.schema();
  TableSpec spec;
  spec.name = stage.table.name();
  if (stage.next.has_value()) spec.next = table_index(*stage.next);
  for (std::size_t c : schema.match_set()) {
    if (std::find(spec.fields.begin(), spec.fields.end(), col_field[c]) ==
        spec.fields.end()) {
      spec.fields.push_back(col_field[c]);
    }
  }

  // Lower straight into the flattened pools: one scratch row's worth of
  // matches/actions, appended without per-rule heap allocation.
  spec.rules.reserve(stage.table.num_rows(),
                     stage.table.num_rows() * schema.match_set().size(),
                     stage.table.num_rows() * schema.action_set().size());
  LoweredRow lowered;
  core::Row scratch;
  for (std::size_t r = 0; r < stage.table.num_rows(); ++r) {
    stage.table.copy_row_into(r, scratch);
    lower_row(schema, scratch, col_field, lowered);
    spec.rules.append(
        lowered.priority, lowered.matches.span(), lowered.actions.span(),
        stage.uses_goto() ? std::optional{table_index(stage.goto_targets[r])}
                          : std::nullopt);
  }

  // Priority order: most specific first; stable to keep insertion order
  // among equals. Sorts the 20-byte refs, not the rule payloads.
  spec.rules.stable_sort_by_priority();
  return spec;
}

}  // namespace

// ---------------------------------------------------------------------------
// FlatRules

namespace {
// Match-index slot markers; a live slot holds position + 1.
constexpr std::uint32_t kSlotEmpty = 0;
constexpr std::uint32_t kSlotDead = ~std::uint32_t{0};

/// Revisions a thread takes from the shared sequence at a time.
constexpr std::uint64_t kRevisionBlock = std::uint64_t{1} << 16;
/// Start of the next unclaimed block; revision 0 is never drawn.
std::atomic<std::uint64_t> revision_blocks{1};

/// The calling thread's claimed block: [next, end).
struct RevisionBlock {
  std::uint64_t next = 0;
  std::uint64_t end = 0;
};
thread_local RevisionBlock revisions;
}  // namespace

std::uint64_t FlatRules::next_revision() noexcept {
  RevisionBlock& block = revisions;
  if (block.next == block.end) {
    block.next =
        revision_blocks.fetch_add(kRevisionBlock, std::memory_order_relaxed);
    block.end = block.next + kRevisionBlock;
  }
  return block.next++;
}

FlatRules& FlatRules::operator=(FlatRules&& other) noexcept {
  if (this == &other) return *this;
  refs_ = std::move(other.refs_);
  mfield_ = std::move(other.mfield_);
  mvalue_ = std::move(other.mvalue_);
  mmask_ = std::move(other.mmask_);
  mask_pool_ = std::move(other.mask_pool_);
  acts_ = std::move(other.acts_);
  match_garbage_ = other.match_garbage_;
  action_garbage_ = other.action_garbage_;
  revision_ = other.revision_;
  index_ = std::move(other.index_);
  index_positions_ = std::move(other.index_positions_);
  index_dirty_ = other.index_dirty_;
  index_dups_ = other.index_dups_;
  index_live_ = other.index_live_;
  index_dead_ = other.index_dead_;
  other.clear();  // empty, under a fresh revision
  return *this;
}

void FlatRules::clear() noexcept {
  revision_ = next_revision();
  refs_.clear();
  mfield_.clear();
  mvalue_.clear();
  mmask_.clear();
  mask_pool_.clear();
  acts_.clear();
  match_garbage_ = action_garbage_ = 0;
  index_.clear();
  index_positions_ = util::BuildPositions();
  index_dirty_ = true;
  index_dups_ = false;
  index_live_ = index_dead_ = 0;
}

void FlatRules::reserve(std::size_t rules, std::size_t matches,
                        std::size_t actions) {
  refs_.reserve(rules);
  if (matches > 0) {
    mfield_.reserve(matches);
    mvalue_.reserve(matches);
    mmask_.reserve(matches);
  }
  if (actions > 0) acts_.reserve(actions);
}

std::uint16_t FlatRules::intern_mask(std::uint64_t mask) {
  // Backward scan: real programs use a handful of masks (one all-ones
  // entry for every exact match, a few prefix masks), and the hot mask
  // is almost always the most recent one.
  for (std::size_t i = mask_pool_.size(); i-- > 0;) {
    if (mask_pool_[i] == mask) return static_cast<std::uint16_t>(i);
  }
  expects(mask_pool_.size() < 65536, "FlatRules mask pool overflow");
  mask_pool_.push_back(mask);
  return static_cast<std::uint16_t>(mask_pool_.size() - 1);
}

void FlatRules::append(std::uint32_t priority,
                       std::span<const FieldMatch> matches,
                       std::span<const Action> actions,
                       std::optional<std::size_t> goto_table) {
  Ref ref;
  ref.priority = priority;
  ref.match_off = static_cast<std::uint32_t>(mfield_.size());
  ref.match_count = static_cast<std::uint16_t>(matches.size());
  ref.action_off = static_cast<std::uint32_t>(acts_.size());
  ref.action_count = static_cast<std::uint16_t>(actions.size());
  ref.goto_plus1 =
      goto_table.has_value()
          ? static_cast<std::uint32_t>(*goto_table) + 1
          : 0;
  for (const FieldMatch& m : matches) {
    mfield_.push_back(static_cast<std::uint8_t>(field_index(m.field)));
    mvalue_.push_back(m.value);
    mmask_.push_back(intern_mask(m.mask));
  }
  for (const Action& a : actions) {
    acts_.push_back({a.value, static_cast<std::uint8_t>(a.kind),
                     static_cast<std::uint8_t>(field_index(a.field)),
                     a.width_bits});
  }
  refs_.push_back(ref);
  revision_ = next_revision();
  // An appended rule follows every survivor, so it takes the next build
  // position and the removal map stays valid.
  if (!index_dirty_) index_insert(refs_.size() - 1, index_positions_.append());
}

void FlatRules::replace(std::size_t pos, const Rule& r) {
  expects(pos < refs_.size(), "FlatRules::replace out of range");
  revision_ = next_revision();
  // The rule keeps its position, so it keeps its build position: the
  // slot the removal probes names it.
  std::size_t build = kNpos;
  if (!index_dirty_) build = index_remove(pos);
  Ref& ref = refs_[pos];
  ref.priority = r.priority;
  ref.goto_plus1 = r.goto_table.has_value()
                       ? static_cast<std::uint32_t>(*r.goto_table) + 1
                       : 0;
  // A payload no longer than the old one overwrites it in place (the
  // common same-shape modify), so the pools neither grow nor collect
  // garbage; a longer one is appended and the old span becomes garbage.
  if (r.matches.size() > ref.match_count) {
    match_garbage_ += ref.match_count;
    ref.match_off = static_cast<std::uint32_t>(mfield_.size());
    mfield_.resize(mfield_.size() + r.matches.size());
    mvalue_.resize(mfield_.size());
    mmask_.resize(mfield_.size());
  } else {
    match_garbage_ += ref.match_count - r.matches.size();
  }
  ref.match_count = static_cast<std::uint16_t>(r.matches.size());
  for (std::size_t i = 0; i < r.matches.size(); ++i) {
    const FieldMatch& m = r.matches[i];
    mfield_[ref.match_off + i] =
        static_cast<std::uint8_t>(field_index(m.field));
    mvalue_[ref.match_off + i] = m.value;
    mmask_[ref.match_off + i] = intern_mask(m.mask);
  }
  if (r.actions.size() > ref.action_count) {
    action_garbage_ += ref.action_count;
    ref.action_off = static_cast<std::uint32_t>(acts_.size());
    acts_.resize(acts_.size() + r.actions.size());
  } else {
    action_garbage_ += ref.action_count - r.actions.size();
  }
  ref.action_count = static_cast<std::uint16_t>(r.actions.size());
  for (std::size_t i = 0; i < r.actions.size(); ++i) {
    const Action& a = r.actions[i];
    acts_[ref.action_off + i] = {a.value, static_cast<std::uint8_t>(a.kind),
                                 static_cast<std::uint8_t>(field_index(a.field)),
                                 a.width_bits};
  }
  if (!index_dirty_) {
    index_insert(pos, build != kNpos ? build : index_positions_.build(pos));
  }
  maybe_compact();
}

void FlatRules::insert(std::size_t pos, const Rule& r) {
  expects(pos <= refs_.size(), "FlatRules::insert out of range");
  // Appends pool payload + ref at the end under a fresh revision; the
  // ref moves into place before anything can observe the table.
  push_back(r);
  Ref ref = refs_.back();
  refs_.pop_back();
  refs_.insert(refs_.begin() + static_cast<std::ptrdiff_t>(pos), ref);
  index_dirty_ = true;  // positions after `pos` shifted
}

void FlatRules::erase(std::span<const std::size_t> positions) {
  if (positions.empty()) return;
  expects(positions.back() < refs_.size(), "FlatRules::erase out of range");
  revision_ = next_revision();
  // With duplicate match vectors the index only gates a scan; rebuild
  // it lazily as before. Past the removal map's share, rebuild too.
  bool keep_index = !index_dirty_ && !index_dups_ &&
                    index_positions_.can_remove(positions.size());
  // Every slot is probed before the map records any removal: the probes
  // compare live positions as they were before this erase.
  std::vector<std::size_t> builds;
  if (keep_index) builds.reserve(positions.size());
  for (std::size_t k = 0; k < positions.size(); ++k) {
    expects(k == 0 || positions[k - 1] < positions[k],
            "FlatRules::erase positions must ascend");
    const Ref& ref = refs_[positions[k]];
    match_garbage_ += ref.match_count;
    action_garbage_ += ref.action_count;
    if (keep_index) {
      builds.push_back(index_remove(positions[k]));
      keep_index = builds.back() != kNpos;
    }
  }
  refs_.resize(erase_sorted(refs_.size(), positions,
                            [&](std::size_t from, std::size_t to) {
                              refs_[to] = refs_[from];
                            }));
  if (keep_index) {
    index_positions_.remove(std::span<const std::size_t>(builds));
  } else {
    index_dirty_ = true;
  }
  maybe_compact();
}

std::size_t FlatRules::insert_sorted(const Rule& r) {
  // Stable semantics: the new rule lands after every rule with priority
  // >= its own (what push_back + stable_sort produced).
  const auto it = std::upper_bound(
      refs_.begin(), refs_.end(), r.priority,
      [](std::uint32_t p, const Ref& ref) { return p > ref.priority; });
  const std::size_t pos =
      static_cast<std::size_t>(std::distance(refs_.begin(), it));
  insert(pos, r);
  return pos;
}

std::size_t FlatRules::reposition(std::size_t pos) {
  expects(pos < refs_.size(), "FlatRules::reposition out of range");
  revision_ = next_revision();
  const std::uint32_t p = refs_[pos].priority;
  if (p > (pos == 0 ? ~std::uint32_t{0} : refs_[pos - 1].priority)) {
    // Moved up: stable sort puts it after the existing run of rules with
    // priority >= p that precede it.
    const auto it = std::upper_bound(
        refs_.begin(), refs_.begin() + static_cast<std::ptrdiff_t>(pos), p,
        [](std::uint32_t pr, const Ref& ref) { return pr > ref.priority; });
    const std::size_t target =
        static_cast<std::size_t>(std::distance(refs_.begin(), it));
    const Ref moved = refs_[pos];
    std::move_backward(refs_.begin() + static_cast<std::ptrdiff_t>(target),
                       refs_.begin() + static_cast<std::ptrdiff_t>(pos),
                       refs_.begin() + static_cast<std::ptrdiff_t>(pos + 1));
    refs_[target] = moved;
    index_dirty_ = true;
    return target;
  }
  if (pos + 1 < refs_.size() && refs_[pos + 1].priority > p) {
    // Moved down: stable sort puts it before the rules with priority
    // > p that follow, and before the equal-priority run after them.
    const auto it = std::lower_bound(
        refs_.begin() + static_cast<std::ptrdiff_t>(pos + 1), refs_.end(), p,
        [](const Ref& ref, std::uint32_t pr) { return ref.priority > pr; });
    const std::size_t target =
        static_cast<std::size_t>(std::distance(refs_.begin(), it)) - 1;
    const Ref moved = refs_[pos];
    std::move(refs_.begin() + static_cast<std::ptrdiff_t>(pos + 1),
              refs_.begin() + static_cast<std::ptrdiff_t>(target + 1),
              refs_.begin() + static_cast<std::ptrdiff_t>(pos));
    refs_[target] = moved;
    index_dirty_ = true;
    return target;
  }
  return pos;  // already in place
}

void FlatRules::stable_sort_by_priority() {
  revision_ = next_revision();
  std::stable_sort(refs_.begin(), refs_.end(),
                   [](const Ref& a, const Ref& b) {
                     return a.priority > b.priority;
                   });
  index_dirty_ = true;
}

void FlatRules::maybe_compact() {
  const std::size_t live_matches = mfield_.size() - match_garbage_;
  const std::size_t live_actions = acts_.size() - action_garbage_;
  if (match_garbage_ > 1024 + live_matches ||
      action_garbage_ > 1024 + live_actions) {
    compact();
  }
}

void FlatRules::compact() {
  std::vector<std::uint8_t> mf;
  std::vector<std::uint64_t> mv;
  std::vector<std::uint16_t> mm;  // mask_pool_ ids stay valid across compaction
  std::vector<PackedAction> ac;
  mf.reserve(mfield_.size() - match_garbage_);
  mv.reserve(mf.capacity());
  mm.reserve(mf.capacity());
  ac.reserve(acts_.size() - action_garbage_);
  for (Ref& ref : refs_) {
    const std::uint32_t moff = static_cast<std::uint32_t>(mf.size());
    for (std::size_t i = 0; i < ref.match_count; ++i) {
      mf.push_back(mfield_[ref.match_off + i]);
      mv.push_back(mvalue_[ref.match_off + i]);
      mm.push_back(mmask_[ref.match_off + i]);
    }
    ref.match_off = moff;
    const std::uint32_t aoff = static_cast<std::uint32_t>(ac.size());
    for (std::size_t i = 0; i < ref.action_count; ++i) {
      ac.push_back(acts_[ref.action_off + i]);
    }
    ref.action_off = aoff;
  }
  mfield_ = std::move(mf);
  mvalue_ = std::move(mv);
  mmask_ = std::move(mm);
  acts_ = std::move(ac);
  match_garbage_ = action_garbage_ = 0;
  // Rule positions are unchanged, so the match index stays valid.
}

std::uint64_t FlatRules::hash_match_span(
    std::span<const FieldMatch> m) const noexcept {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (const FieldMatch& fm : m) {
    mix(field_index(fm.field));
    mix(fm.value);
    mix(fm.mask);
  }
  return h;
}

std::uint64_t FlatRules::hash_rule_matches(std::size_t pos) const noexcept {
  const Ref& r = refs_[pos];
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ULL;
  };
  for (std::size_t i = 0; i < r.match_count; ++i) {
    mix(mfield_[r.match_off + i]);
    mix(mvalue_[r.match_off + i]);
    mix(mask_pool_[mmask_[r.match_off + i]]);  // hash the mask, not the id
  }
  return h;
}

bool FlatRules::match_equals(std::size_t pos,
                             std::span<const FieldMatch> m) const noexcept {
  const Ref& r = refs_[pos];
  if (r.match_count != m.size()) return false;
  for (std::size_t i = 0; i < m.size(); ++i) {
    if (mfield_[r.match_off + i] !=
            static_cast<std::uint8_t>(field_index(m[i].field)) ||
        mvalue_[r.match_off + i] != m[i].value ||
        mask_pool_[mmask_[r.match_off + i]] != m[i].mask) {
      return false;
    }
  }
  return true;
}

void FlatRules::build_index() const {
  expects(refs_.size() < kSlotDead, "FlatRules match index overflow");
  static obs::Counter& builds = obs::MetricRegistry::global().counter(
      "maton_dp_match_index_builds_total");
  builds.add();
  std::size_t cap = 16;
  while (cap < refs_.size() * 2) cap <<= 1;
  index_.assign(cap, kSlotEmpty);
  index_positions_ = util::BuildPositions(refs_.size());
  index_dups_ = false;
  index_live_ = 0;
  index_dead_ = 0;
  index_dirty_ = false;
  for (std::size_t pos = 0; pos < refs_.size(); ++pos) index_insert(pos, pos);
}

void FlatRules::index_insert(std::size_t pos, std::size_t build) const {
  if ((index_live_ + index_dead_ + 1) * 2 > index_.size()) {
    build_index();
    return;
  }
  const std::uint64_t mask = index_.size() - 1;
  std::uint64_t slot = hash_rule_matches(pos) & mask;
  std::size_t first_dead = kNpos;
  while (index_[slot] != kSlotEmpty) {
    if (index_[slot] == kSlotDead) {
      if (first_dead == kNpos) first_dead = slot;
    } else {
      const Ref& a = refs_[index_positions_.live(index_[slot] - 1)];
      const Ref& b = refs_[pos];
      if (a.match_count == b.match_count) {
        bool same = true;
        for (std::size_t i = 0; i < a.match_count; ++i) {
          if (mfield_[a.match_off + i] != mfield_[b.match_off + i] ||
              mvalue_[a.match_off + i] != mvalue_[b.match_off + i] ||
              mmask_[a.match_off + i] != mmask_[b.match_off + i]) {
            same = false;
            break;
          }
        }
        if (same) {
          // Duplicate match vector: first-match semantics need a scan.
          index_dups_ = true;
          return;
        }
      }
    }
    slot = (slot + 1) & mask;
  }
  if (first_dead != kNpos) {
    slot = first_dead;
    --index_dead_;
  }
  index_[slot] = static_cast<std::uint32_t>(build + 1);
  ++index_live_;
}

std::size_t FlatRules::index_remove(std::size_t pos) const {
  const std::uint64_t mask = index_.size() - 1;
  std::uint64_t slot = hash_rule_matches(pos) & mask;
  while (index_[slot] != kSlotEmpty) {
    if (index_[slot] != kSlotDead) {
      const std::size_t build = index_[slot] - 1;
      if (index_positions_.live(build) == pos) {
        index_[slot] = kSlotDead;
        --index_live_;
        ++index_dead_;
        return build;
      }
    }
    slot = (slot + 1) & mask;
  }
  return kNpos;  // shadowed by a duplicate
}

std::size_t FlatRules::find_by_match(
    std::span<const FieldMatch> target) const {
  if (index_dirty_) build_index();
  if (index_dups_) {
    for (std::size_t pos = 0; pos < refs_.size(); ++pos) {
      if (match_equals(pos, target)) return pos;
    }
    return kNpos;
  }
  const std::uint64_t mask = index_.size() - 1;
  std::uint64_t slot = hash_match_span(target) & mask;
  while (index_[slot] != kSlotEmpty) {
    if (index_[slot] != kSlotDead) {
      const std::size_t pos = index_positions_.live(index_[slot] - 1);
      if (match_equals(pos, target)) return pos;
    }
    slot = (slot + 1) & mask;
  }
  return kNpos;
}

std::vector<Rule> FlatRules::to_rules() const {
  std::vector<Rule> out;
  out.reserve(size());
  for (std::size_t i = 0; i < size(); ++i) out.push_back((*this)[i]);
  return out;
}

std::size_t FlatRules::memory_bytes() const noexcept {
  return refs_.capacity() * sizeof(Ref) +
         mfield_.capacity() * sizeof(std::uint8_t) +
         mvalue_.capacity() * sizeof(std::uint64_t) +
         mmask_.capacity() * sizeof(std::uint16_t) +
         mask_pool_.capacity() * sizeof(std::uint64_t) +
         acts_.capacity() * sizeof(PackedAction);
}

// ---------------------------------------------------------------------------

MatchProfile TableSpec::profile(FieldId* prefix_out) const {
  // Classify each field of each rule by its folded mask: unmatched
  // (wildcard), full (exact), a prefix, or anything else. Unsatisfiable
  // rules never match and no template indexes them; a match outside
  // `fields` fits no template keyed on them.
  std::optional<FieldId> prefix_field;
  for (const auto rule : rules) {
    const detail::PackedMatch packed =
        detail::fold_matches(fields, rule.matches);
    if (packed.outside) return MatchProfile::kTernary;
    if (!packed.satisfiable) continue;
    for (std::size_t i = 0; i < fields.size(); ++i) {
      const FieldId f = fields[i];
      if ((packed.matched >> i & 1u) == 0) return MatchProfile::kTernary;
      if (packed.mask[i] == full_mask(f)) continue;
      if (!is_prefix_mask(f, packed.mask[i]) ||
          (prefix_field.has_value() && *prefix_field != f)) {
        return MatchProfile::kTernary;
      }
      prefix_field = f;
    }
  }
  if (!prefix_field.has_value()) return MatchProfile::kAllExact;
  if (prefix_out != nullptr) *prefix_out = *prefix_field;
  return MatchProfile::kSinglePrefix;
}

std::size_t Program::total_rules() const noexcept {
  std::size_t n = 0;
  for (const TableSpec& t : tables) n += t.rules.size();
  return n;
}

std::size_t Program::rule_memory_bytes() const noexcept {
  std::size_t n = 0;
  for (const TableSpec& t : tables) n += t.rules.memory_bytes();
  return n;
}

Result<Program> compile(const core::Pipeline& pipeline, FieldMap* field_map) {
  if (Status s = pipeline.validate(); !s.is_ok()) return s;

  // Husk elision: Pipeline::splice leaves behind zero-column forwarding
  // shells that nothing references once redirection is complete. Follow
  // the goto/next edges from the entry (conservatively, next counts
  // even for empty tables) and drop the *schemaless* stages that are
  // unreachable, so splice shells never reach the switch. Unreachable
  // stages with real schemas are kept as-is — that is an authoring
  // defect for the analyzer (MA203) to report, not for the compiler to
  // silently discard.
  std::vector<bool> keep(pipeline.num_stages(), false);
  {
    std::vector<std::size_t> work{pipeline.entry()};
    while (!work.empty()) {
      const std::size_t i = work.back();
      work.pop_back();
      if (keep[i]) continue;
      keep[i] = true;
      const core::Stage& st = pipeline.stage(i);
      for (const std::size_t t : st.goto_targets) {
        if (!keep[t]) work.push_back(t);
      }
      if (st.next.has_value() && !keep[*st.next]) work.push_back(*st.next);
    }
    for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
      if (pipeline.stage(i).table.num_cols() > 0) keep[i] = true;
    }
    // Kept stages must never reference a dropped one: close over the
    // edges of everything kept so no remapped index dangles.
    for (bool changed = true; changed;) {
      changed = false;
      for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
        if (!keep[i]) continue;
        const core::Stage& st = pipeline.stage(i);
        for (const std::size_t t : st.goto_targets) {
          if (!keep[t]) keep[t] = changed = true;
        }
        if (st.next.has_value() && !keep[*st.next]) {
          keep[*st.next] = changed = true;
        }
      }
    }
  }
  std::vector<std::size_t> remap(pipeline.num_stages(), 0);
  std::size_t kept = 0;
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    if (keep[i]) remap[i] = kept++;
  }

  Program program;
  program.entry = remap[pipeline.entry()];
  FieldAllocator alloc;

  for (std::size_t si = 0; si < pipeline.num_stages(); ++si) {
    if (!keep[si]) continue;
    const core::Stage& stage = pipeline.stage(si);
    const core::Schema& schema = stage.table.schema();
    // Resolve every attribute once.
    std::vector<FieldId> col_field(schema.size());
    for (std::size_t c = 0; c < schema.size(); ++c) {
      auto id = alloc.resolve(schema.at(c).name);
      if (!id.is_ok()) return id.status();
      col_field[c] = id.value();
    }
    program.tables.push_back(lower_stage_resolved(stage, col_field, remap));
  }
  if (field_map != nullptr) *field_map = alloc.assigned();
  return program;
}

Result<std::vector<FieldId>> resolve_columns(const core::Schema& schema,
                                             const FieldMap& field_map) {
  std::vector<FieldId> col_field(schema.size());
  for (std::size_t c = 0; c < schema.size(); ++c) {
    const std::string& name = schema.at(c).name;
    if (const auto builtin = builtin_field(name)) {
      col_field[c] = *builtin;
      continue;
    }
    const auto it = field_map.find(name);
    if (it == field_map.end()) {
      return invalid_argument("attribute '" + name +
                              "' not present in the field map");
    }
    col_field[c] = it->second;
  }
  return col_field;
}

Rule LoweredRow::to_rule(std::optional<std::size_t> goto_table) const {
  return {priority, std::vector<FieldMatch>(matches.begin(), matches.end()),
          std::vector<Action>(actions.begin(), actions.end()), goto_table};
}

void lower_row(const core::Schema& schema, std::span<const core::Value> row,
               std::span<const FieldId> col_field, LoweredRow& out) {
  expects(row.size() == schema.size() && col_field.size() == schema.size(),
          "row width does not match schema width");
  out.matches.clear();
  out.actions.clear();
  std::uint32_t specificity = 0;
  for (std::size_t c : schema.match_set()) {
    const FieldMatch m = lower_match(col_field[c], schema.at(c), row[c]);
    specificity += static_cast<std::uint32_t>(std::popcount(m.mask));
    out.matches.push_back(m);
  }
  // Longest-prefix-first semantics: more specific rules win.
  out.priority = specificity;
  for (std::size_t c : schema.action_set()) {
    const core::Attribute& attr = schema.at(c);
    if (attr.name == "out") {
      out.actions.push_back({Action::Kind::kOutput, FieldId::kMeta0, row[c]});
    } else {
      Action set{Action::Kind::kSetField, col_field[c], row[c]};
      // Only the attribute's declared bits are defined by this write;
      // the dataflow pass flags wider reads (MA302).
      set.width_bits = static_cast<std::uint8_t>(std::min<unsigned>(
          attr.width_bits, field_width(col_field[c])));
      out.actions.push_back(set);
    }
  }
}

ExecResult execute_reference(const Program& program, const FlowKey& key,
                             MatchedBuf* matched) {
  ExecResult result;
  if (matched != nullptr) matched->clear();
  if (program.tables.empty()) return result;

  FlowKey state = key;
  std::optional<std::size_t> current = program.entry;
  while (current.has_value()) {
    expects(*current < program.tables.size(),
            "program jump out of range");
    expects(result.tables_visited <= program.tables.size(),
            "program table graph contains a cycle");
    ++result.tables_visited;
    const TableSpec& table = program.tables[*current];

    std::optional<RuleView> hit;
    for (std::size_t r = 0; r < table.rules.size(); ++r) {  // priority order
      if (table.rules[r].matches_key(state)) {
        hit = table.rules[r];
        if (matched != nullptr) matched->push_back({*current, r});
        break;
      }
    }
    if (!hit.has_value()) {
      result.hit = false;
      result.out_port = 0;
      return result;
    }
    for (const Action action : hit->actions) {
      if (action.kind == Action::Kind::kOutput) {
        result.out_port = action.value;
      } else {
        state.set(action.field, action.value);
      }
    }
    current = hit->goto_table.has_value() ? hit->goto_table : table.next;
  }
  result.hit = true;
  return result;
}

}  // namespace maton::dp

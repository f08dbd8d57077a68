#include "analysis/symbolic/dd.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/contract.hpp"

namespace maton::analysis::symbolic {
namespace {

/// Operator tags for the shared computed cache (0 marks an empty slot).
enum OpTag : std::uint32_t {
  kOpAnd = 1,
  kOpOr = 2,
  kOpNot = 3,
  kOpIte = 4,
  kOpOverlay = 5,
};

/// Initial slot counts of the unique table and the computed cache; both
/// double as the store grows, so a small proof stays small.
constexpr std::size_t kInitialSlots = std::size_t{1} << 12;

/// murmur3's 64-bit finalizer.
constexpr std::uint64_t fmix(std::uint64_t h) noexcept {
  h ^= h >> 33;
  h *= 0xff51afd7ed558ccdULL;
  h ^= h >> 33;
  h *= 0xc4ceb9fe1a85ec53ULL;
  h ^= h >> 33;
  return h;
}

constexpr std::uint64_t mix(std::uint64_t h, std::uint64_t v) noexcept {
  return fmix(h ^ (v * 0x9e3779b97f4a7c15ULL));
}

constexpr std::uint64_t pack(std::uint32_t hi, std::uint32_t lo) noexcept {
  return (std::uint64_t{hi} << 32) | lo;
}

}  // namespace

DiagramStore::DiagramStore(std::size_t max_nodes)
    : max_nodes_(std::min(max_nodes, std::size_t{1} << kTagShift)),
      unique_(kInitialSlots, kInvalidNode),
      cache_(kInitialSlots) {
  expects(max_nodes_ >= 2, "DiagramStore: budget too small for leaves");
  // Start the arena as small as the indexes and let it double: a
  // one-shot store interns a few hundred nodes, and a
  // 2 MB up-front arena, once freed, raises glibc's mmap threshold so
  // that later mid-size buffers stay in the heap as holes.
  nodes_.reserve(std::min<std::size_t>(max_nodes_, kInitialSlots));
  false_ = leaf(0);
  true_ = leaf(1);
}

NodeId DiagramStore::leaf(std::uint64_t payload) {
  Node n;
  n.var = kLeafVar;
  n.lo = static_cast<std::uint32_t>(payload);
  n.hi = static_cast<std::uint32_t>(payload >> 32);
  n.hash = content_hash(n);
  return intern(n);
}

std::uint64_t DiagramStore::leaf_payload(NodeId id) const {
  expects(is_leaf(id), "leaf_payload on an inner node");
  return payload_of(nodes_[id]);
}

NodeId DiagramStore::bit_node(std::uint32_t var, NodeId lo, NodeId hi) {
  if (lo == hi) return lo;
  expects(var < var_of(lo) && var < var_of(hi),
          "bit_node: children must branch on larger vars");
  Node n;
  n.var = var;
  n.lo = lo;
  n.hi = hi;
  n.hash = content_hash(n);
  return intern(n);
}

NodeId DiagramStore::value_node(std::uint32_t var, std::span<const Edge> edges,
                                NodeId def) {
  // Surviving edges go straight to the pool tail; a duplicate node gives
  // them back below.
  const auto begin = static_cast<std::uint32_t>(edge_pool_.size());
  for (const Edge& e : edges) {
    if (e.second == def) continue;
    expects(edge_pool_.size() == begin || edge_pool_.back().first <= e.first,
            "value_node: edges must be sorted by value");
    edge_pool_.push_back(e);
  }
  const auto count = static_cast<std::uint32_t>(edge_pool_.size() - begin);
  if (count == 0) return def;
  expects(var < var_of(def), "value_node: default must branch on larger var");
  for (std::uint32_t i = begin; i < begin + count; ++i) {
    expects(var < var_of(edge_pool_[i].second),
            "value_node: children must branch on larger vars");
  }
  Node n;
  n.var = var;
  n.lo = def;
  n.hi = begin;
  n.edges_count = count;
  n.hash = content_hash(n);
  const std::size_t before = nodes_.size();
  const NodeId id = intern(n);
  if (nodes_.size() == before) edge_pool_.resize(begin);  // duplicate node
  return id;
}

NodeId DiagramStore::cube(std::span<const CubeBit> bits) {
  NodeId acc = true_;
  for (std::size_t i = bits.size(); i-- > 0;) {
    const auto& b = bits[i];
    acc = b.one ? bit_node(b.var, false_, acc) : bit_node(b.var, acc, false_);
  }
  return acc;
}

NodeId DiagramStore::value_cube(std::span<const CubeValue> values) {
  NodeId acc = true_;
  for (std::size_t i = values.size(); i-- > 0;) {
    const Edge edge{values[i].value, acc};
    acc = value_node(values[i].var, {&edge, 1}, false_);
  }
  return acc;
}

NodeId DiagramStore::b_and(NodeId a, NodeId b) { return apply_bool(a, b, true); }
NodeId DiagramStore::b_or(NodeId a, NodeId b) { return apply_bool(a, b, false); }

NodeId DiagramStore::apply_bool(NodeId a, NodeId b, bool is_and) {
  if (a == b) return a;
  if (is_and) {
    if (a == false_ || b == false_) return false_;
    if (a == true_) return b;
    if (b == true_) return a;
  } else {
    if (a == true_ || b == true_) return true_;
    if (a == false_) return b;
    if (b == false_) return a;
  }
  expects(!is_leaf(a) && !is_leaf(b),
          "boolean operator over non-boolean leaves");
  const std::uint32_t tag = is_and ? kOpAnd : kOpOr;
  if (b < a) std::swap(a, b);
  if (const NodeId hit = cache_find(tag, a, b, 0); hit != kInvalidNode) {
    return hit;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind k = kind(var_of(a) == var ? nodes_[a] : nodes_[b]);
  NodeId result = kInvalidNode;
  if (k == Kind::kBit) {
    const NodeId lo = apply_bool(cofactor(a, var, 0, false),
                                 cofactor(b, var, 0, false), is_and);
    const NodeId hi = apply_bool(cofactor(a, var, 1, false),
                                 cofactor(b, var, 1, false), is_and);
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def = apply_bool(cofactor(a, var, 0, true),
                                  cofactor(b, var, 0, true), is_and);
    std::vector<Edge> edges;
    for (const std::uint64_t v : branch_values({a, b}, var)) {
      edges.emplace_back(v, apply_bool(cofactor(a, var, v, false),
                                       cofactor(b, var, v, false), is_and));
    }
    result = value_node(var, edges, def);
  }
  cache_store(tag, a, b, 0, result);
  return result;
}

NodeId DiagramStore::b_not(NodeId a) {
  if (a == false_) return true_;
  if (a == true_) return false_;
  expects(!is_leaf(a), "negation over a non-boolean leaf");
  if (const NodeId hit = cache_find(kOpNot, a, 0, 0); hit != kInvalidNode) {
    return hit;
  }
  const Node n = nodes_[a];  // copy: recursion may reallocate nodes_
  NodeId result = kInvalidNode;
  if (kind(n) == Kind::kBit) {
    const NodeId lo = b_not(n.lo);
    result = bit_node(n.var, lo, b_not(n.hi));
  } else {
    const NodeId def = b_not(n.lo);
    std::vector<Edge> edges(edges_of(n).begin(), edges_of(n).end());
    for (Edge& e : edges) e.second = b_not(e.second);
    result = value_node(n.var, edges, def);
  }
  cache_store(kOpNot, a, 0, 0, result);
  return result;
}

NodeId DiagramStore::ite(NodeId p, NodeId t, NodeId e) {
  if (p == true_) return t;
  if (p == false_) return e;
  if (t == e) return t;
  expects(!is_leaf(p), "ite predicate must be boolean");
  if (const NodeId hit = cache_find(kOpIte, p, t, e); hit != kInvalidNode) {
    return hit;
  }
  const std::uint32_t var = std::min({var_of(p), var_of(t), var_of(e)});
  Kind k = Kind::kLeaf;
  for (const NodeId id : {p, t, e}) {
    if (var_of(id) == var) {
      k = kind(nodes_[id]);
      break;
    }
  }
  NodeId result = kInvalidNode;
  if (k == Kind::kBit) {
    const NodeId lo =
        ite(cofactor(p, var, 0, false), cofactor(t, var, 0, false),
            cofactor(e, var, 0, false));
    const NodeId hi =
        ite(cofactor(p, var, 1, false), cofactor(t, var, 1, false),
            cofactor(e, var, 1, false));
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def =
        ite(cofactor(p, var, 0, true), cofactor(t, var, 0, true),
            cofactor(e, var, 0, true));
    std::vector<Edge> edges;
    for (const std::uint64_t v : branch_values({p, t, e}, var)) {
      edges.emplace_back(
          v, ite(cofactor(p, var, v, false), cofactor(t, var, v, false),
                 cofactor(e, var, v, false)));
    }
    result = value_node(var, edges, def);
  }
  cache_store(kOpIte, p, t, e, result);
  return result;
}

NodeId DiagramStore::overlay_first(NodeId a, NodeId b, NodeId identity) {
  if (a == identity) return b;
  if (b == identity || a == b) return a;
  if (is_leaf(a)) return a;  // total on this region: left wins
  if (const NodeId hit = cache_find(kOpOverlay, a, b, identity);
      hit != kInvalidNode) {
    return hit;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind k = kind(var_of(a) == var ? nodes_[a] : nodes_[b]);
  NodeId result = kInvalidNode;
  if (k == Kind::kBit) {
    const NodeId lo = overlay_first(cofactor(a, var, 0, false),
                                    cofactor(b, var, 0, false), identity);
    const NodeId hi = overlay_first(cofactor(a, var, 1, false),
                                    cofactor(b, var, 1, false), identity);
    result = bit_node(var, lo, hi);
  } else {
    const NodeId def = overlay_first(cofactor(a, var, 0, true),
                                     cofactor(b, var, 0, true), identity);
    std::vector<Edge> edges;
    for (const std::uint64_t v : branch_values({a, b}, var)) {
      edges.emplace_back(
          v, overlay_first(cofactor(a, var, v, false),
                           cofactor(b, var, v, false), identity));
    }
    result = value_node(var, edges, def);
  }
  cache_store(kOpOverlay, a, b, identity, result);
  return result;
}

std::optional<DiagramStore::Divergence> DiagramStore::first_divergence(
    NodeId a, NodeId b) {
  if (a == b) return std::nullopt;
  Divergence out;
  std::vector<PathStep> path;
  const bool found = find_divergence(a, b, path, out);
  ensures(found, "canonical diagrams differ but no divergence found");
  return out;
}

bool DiagramStore::find_divergence(NodeId a, NodeId b,
                                   std::vector<PathStep>& path,
                                   Divergence& out) {
  if (a == b) return false;
  if (is_leaf(a) && is_leaf(b)) {
    out.path = path;
    out.left = payload_of(nodes_[a]);
    out.right = payload_of(nodes_[b]);
    return true;
  }
  const std::uint32_t var = std::min(var_of(a), var_of(b));
  const Kind k = kind(var_of(a) == var ? nodes_[a] : nodes_[b]);
  if (k == Kind::kBit) {
    for (const std::uint64_t bit : {std::uint64_t{0}, std::uint64_t{1}}) {
      path.push_back({var, bit, false});
      if (find_divergence(cofactor(a, var, bit, false),
                          cofactor(b, var, bit, false), path, out)) {
        return true;
      }
      path.pop_back();
    }
    return false;
  }
  for (const std::uint64_t v : branch_values({a, b}, var)) {
    path.push_back({var, v, false});
    if (find_divergence(cofactor(a, var, v, false),
                        cofactor(b, var, v, false), path, out)) {
      return true;
    }
    path.pop_back();
  }
  path.push_back({var, kDefaultBranch, true});
  if (find_divergence(cofactor(a, var, 0, true), cofactor(b, var, 0, true),
                      path, out)) {
    return true;
  }
  path.pop_back();
  return false;
}

std::optional<std::uint64_t> DiagramStore::max_edge_value(
    NodeId root, std::uint32_t var) const {
  std::optional<std::uint64_t> best;
  std::vector<NodeId> stack{root};
  std::unordered_map<NodeId, bool> seen;
  while (!stack.empty()) {
    const NodeId id = stack.back();
    stack.pop_back();
    if (seen.contains(id)) continue;
    seen.emplace(id, true);
    const Node& n = nodes_[id];
    const Kind k = kind(n);
    if (k == Kind::kLeaf || n.var > var) continue;  // children larger
    if (k == Kind::kValue && n.var == var) {
      for (const auto& e : edges_of(n)) {
        if (!best || e.first > *best) best = e.first;
      }
      continue;
    }
    if (k == Kind::kBit) {
      stack.push_back(n.lo);
      stack.push_back(n.hi);
      continue;
    }
    stack.push_back(n.lo);
    for (const auto& e : edges_of(n)) stack.push_back(e.second);
  }
  return best;
}

NodeId DiagramStore::cofactor(NodeId id, std::uint32_t var,
                              std::uint64_t branch_value,
                              bool take_default) const {
  const Node& n = nodes_[id];
  if (n.var != var) return id;
  if (n.edges_count == 0) return branch_value != 0 ? n.hi : n.lo;  // bit
  if (take_default) return n.lo;
  const auto edges = edges_of(n);
  const auto it = std::lower_bound(
      edges.begin(), edges.end(), branch_value,
      [](const Edge& e, std::uint64_t v) { return e.first < v; });
  if (it != edges.end() && it->first == branch_value) return it->second;
  return n.lo;
}

std::vector<std::uint64_t> DiagramStore::branch_values(
    std::initializer_list<NodeId> ids, std::uint32_t var) const {
  std::vector<std::uint64_t> values;
  for (const NodeId id : ids) {
    const Node& n = nodes_[id];
    if (n.var != var || kind(n) != Kind::kValue) continue;
    for (const auto& e : edges_of(n)) values.push_back(e.first);
  }
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

std::uint32_t DiagramStore::content_hash(const Node& n) const noexcept {
  if (n.var == kLeafVar) {
    return static_cast<std::uint32_t>(mix(kLeafVar, payload_of(n)));
  }
  if (n.edges_count == 0) {
    return static_cast<std::uint32_t>(mix(pack(n.var, n.lo), n.hi));
  }
  std::uint64_t h = pack(n.var, n.lo);
  for (const Edge& e : edges_of(n)) h = mix(h ^ e.first, e.second);
  return static_cast<std::uint32_t>(h);
}

bool DiagramStore::same_content(const Node& a, const Node& b) const {
  if (a.hash != b.hash || a.var != b.var || a.lo != b.lo ||
      a.edges_count != b.edges_count) {
    return false;
  }
  // hi is a bit node's 1-branch or a leaf's payload word, but a value
  // node's edge index: compare its edges instead.
  if (a.edges_count == 0) return a.hi == b.hi;
  const auto ea = edges_of(a);
  return std::equal(ea.begin(), ea.end(), edges_of(b).begin());
}

NodeId DiagramStore::intern(const Node& n) {
  const std::size_t mask = unique_.size() - 1;
  for (std::size_t slot = n.hash & mask;; slot = (slot + 1) & mask) {
    const NodeId cand = unique_[slot];
    if (cand == kInvalidNode) {
      check_budget();
      const auto id = static_cast<NodeId>(nodes_.size());
      nodes_.push_back(n);
      ++stats_.nodes;
      unique_[slot] = id;
      if (nodes_.size() * 2 > unique_.size()) grow_unique();
      return id;
    }
    if (same_content(nodes_[cand], n)) return cand;
  }
}

void DiagramStore::grow_unique() { rehash_unique(unique_.size() * 2); }

void DiagramStore::rehash_unique(std::size_t slots) {
  unique_.assign(slots, kInvalidNode);
  const std::size_t mask = unique_.size() - 1;
  for (NodeId id = 0; id < nodes_.size(); ++id) {
    std::size_t slot = nodes_[id].hash & mask;
    while (unique_[slot] != kInvalidNode) slot = (slot + 1) & mask;
    unique_[slot] = id;
  }
}

void DiagramStore::check_budget() const {
  if (nodes_.size() >= max_nodes_) throw NodeBudgetExceeded{};
}

namespace {
std::size_t cache_slot(std::uint32_t key, NodeId b, NodeId c,
                       std::size_t mask) noexcept {
  return static_cast<std::size_t>(mix(pack(key, b), c)) & mask;
}
}  // namespace

NodeId DiagramStore::cache_find(std::uint32_t tag, NodeId a, NodeId b,
                                NodeId c) {
  ++stats_.memo_lookups;
  const std::uint32_t key = a | (tag << kTagShift);
  const CacheEntry& entry = cache_[cache_slot(key, b, c, cache_.size() - 1)];
  if (entry.key != key || entry.b != b || entry.c != c) return kInvalidNode;
  ++stats_.memo_hits;
  return entry.result;
}

void DiagramStore::cache_store(std::uint32_t tag, NodeId a, NodeId b,
                               NodeId c, NodeId result) {
  if (nodes_.size() - cache_base_ > 2 * cache_.size()) {
    // Grow with the store, carrying the live entries over (colliding
    // ones are dropped, as any later overwrite would).
    std::vector<CacheEntry> old(cache_.size() * 2);
    old.swap(cache_);
    const std::size_t mask = cache_.size() - 1;
    for (const CacheEntry& e : old) {
      if (e.key != 0) cache_[cache_slot(e.key, e.b, e.c, mask)] = e;
    }
  }
  const std::uint32_t key = a | (tag << kTagShift);
  cache_[cache_slot(key, b, c, cache_.size() - 1)] = {key, b, c, result};
}

void DiagramStore::compact(std::span<NodeId> roots) {
  // Children are interned before their parents, so one descending sweep
  // marks everything reachable, and sliding the survivors down in
  // ascending order keeps every child below its parent. A node's edges
  // sit after those of every node created before it, so both write
  // cursors trail their reads. The unique table is rebuilt below, so its
  // slots (at least twice the nodes) hold the mark and then the new ids:
  // kInvalidNode is garbage.
  std::vector<NodeId>& remap = unique_;
  std::fill_n(remap.begin(), nodes_.size(), kInvalidNode);
  remap[false_] = remap[true_] = 0;
  for (const NodeId root : roots) remap[root] = 0;
  for (std::size_t id = nodes_.size(); id-- > 0;) {
    const Node& n = nodes_[id];
    if (remap[id] == kInvalidNode || n.var == kLeafVar) continue;
    remap[n.lo] = 0;
    if (n.edges_count == 0) remap[n.hi] = 0;
    for (const Edge& e : edges_of(n)) remap[e.second] = 0;
  }
  NodeId kept = 0;
  std::uint32_t kept_edges = 0;
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    if (remap[id] == kInvalidNode) continue;
    Node n = nodes_[id];
    if (n.var != kLeafVar) {
      n.lo = remap[n.lo];
      if (n.edges_count == 0) n.hi = remap[n.hi];
    }
    if (n.edges_count != 0) {
      for (std::uint32_t i = 0; i < n.edges_count; ++i) {
        const Edge e = edge_pool_[n.hi + i];
        edge_pool_[kept_edges + i] = {e.first, remap[e.second]};
      }
      n.hi = kept_edges;
      kept_edges += n.edges_count;
    }
    n.hash = content_hash(n);
    nodes_[kept] = n;
    remap[id] = kept++;
  }
  nodes_.resize(kept);
  edge_pool_.resize(kept_edges);
  for (NodeId& root : roots) root = remap[root];
  false_ = remap[false_];
  true_ = remap[true_];

  rehash_unique(unique_.size());
  std::fill(cache_.begin(), cache_.end(), CacheEntry{});
  cache_base_ = nodes_.size();
  // The rewrite memo needs nothing: the next rewrite takes a fresh epoch,
  // which no stale stamp holds.
}

}  // namespace maton::analysis::symbolic

// Hash-consed decision diagrams over packet headers — the engine behind
// the symbolic equivalence checks (DESIGN.md §15).
//
// A DiagramStore interns three node kinds in one arena:
//
//   Leaf(payload)            terminal; payload meaning is the caller's
//                            (booleans, interned verdicts)
//   Bit(var, lo, hi)         binary branch on one bit of one dp field;
//                            var = field_index * 64 + MSB-first offset
//   Value(var, edges, def)   n-way branch on a whole attribute value;
//                            `def` covers every value no edge names
//
// Nodes are reduced on construction (a branch whose children coincide is
// never materialized; value edges pointing at the default child are
// dropped) and hash-consed, so diagrams are canonical by construction:
// two roots denote the same packet function iff their NodeIds are equal.
// All operators preserve the global variable order (smaller var closer
// to the root) and never mix node kinds on one variable; in particular
// ite() — the sequence/composition workhorse — interleaves its operands
// by variable rather than grafting subtrees, so composing a table with a
// successor that re-tests an already-matched field stays canonical.
//
// Every node creation checks the store's node budget; exceeding it
// throws NodeBudgetExceeded, which the engine API layer translates into
// an "unknown" outcome — the budget can cost an answer, never make one
// wrong.
//
// Storage is flat (DESIGN.md §15.1): nodes live in one arena, the unique
// table is open-addressed over NodeIds with each node's hash cached in
// the node, the operator memo is a direct-mapped lossy cache, and the
// leaf/cofactor rewriters share one epoch-stamped memo. None of them
// allocates per operation once the store has grown.
#pragma once

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/contract.hpp"

namespace maton::analysis::symbolic {

using NodeId = std::uint32_t;
inline constexpr NodeId kInvalidNode = 0xffffffffu;

/// Branch label of a value node's default edge in diff paths.
inline constexpr std::uint64_t kDefaultBranch = ~std::uint64_t{0};

/// Internal control-flow exception for the node budget; callers of the
/// engine entry points (engine.hpp) never see it.
struct NodeBudgetExceeded {};

/// Work tallies, surfaced in engine results and the maton_symbolic_*
/// counters. A store keeps the first three over its lifetime; a Result
/// carries what one check added, and the table counts of the
/// ProgramProver's cache (zero for the core front-ends).
struct StoreStats {
  std::size_t nodes = 0;         ///< unique nodes interned
  std::size_t memo_hits = 0;     ///< operator cache hits
  std::size_t memo_lookups = 0;  ///< operator cache probes
  std::size_t table_hits = 0;    ///< tables whose diagram was reused
  std::size_t table_misses = 0;  ///< tables folded afresh
  /// Tables whose content key was built: the misses other than
  /// successor patches, and the hits a table's revision could not vouch
  /// for.
  std::size_t tables_keyed = 0;
  /// Misses patched without a key: same rules as the cached entry, some
  /// successor diagrams changed.
  std::size_t successor_patches = 0;
};

/// One bit constraint of a ternary cube, ascending-var order.
struct CubeBit {
  std::uint32_t var = 0;
  bool one = false;
};

/// One exact value constraint of a value-universe cube, ascending-var.
struct CubeValue {
  std::uint32_t var = 0;
  std::uint64_t value = 0;
};

/// One step of a root-to-leaf path (counterexample extraction).
struct PathStep {
  std::uint32_t var = 0;
  std::uint64_t branch = 0;  ///< bit 0/1, edge value, or kDefaultBranch
  bool is_default = false;   ///< took a value node's default edge
};

class DiagramStore {
 public:
  /// One edge of a value node: (attribute value, child).
  using Edge = std::pair<std::uint64_t, NodeId>;

  explicit DiagramStore(std::size_t max_nodes);

  /// Reserved boolean leaves, interned by the constructor.
  [[nodiscard]] NodeId false_leaf() const noexcept { return false_; }
  [[nodiscard]] NodeId true_leaf() const noexcept { return true_; }

  [[nodiscard]] NodeId leaf(std::uint64_t payload);
  [[nodiscard]] bool is_leaf(NodeId id) const noexcept {
    return nodes_[id].var == kLeafVar;
  }
  [[nodiscard]] std::uint64_t leaf_payload(NodeId id) const;

  /// Reduced, interned binary node; returns `lo` when lo == hi.
  [[nodiscard]] NodeId bit_node(std::uint32_t var, NodeId lo, NodeId hi);

  /// Reduced, interned n-way node. `edges` must be sorted by value with
  /// no duplicates; edges whose child equals `def` are elided, and the
  /// node collapses to `def` when no edge survives.
  [[nodiscard]] NodeId value_node(std::uint32_t var,
                                  std::span<const Edge> edges, NodeId def);

  /// Predicate diagram of a ternary cube (true inside, false outside).
  [[nodiscard]] NodeId cube(std::span<const CubeBit> bits);
  /// Predicate diagram of an exact-match value cube.
  [[nodiscard]] NodeId value_cube(std::span<const CubeValue> values);

  // -- Set operators over predicate diagrams ---------------------------

  [[nodiscard]] NodeId b_and(NodeId a, NodeId b);  ///< intersect
  [[nodiscard]] NodeId b_or(NodeId a, NodeId b);   ///< union
  [[nodiscard]] NodeId b_not(NodeId a);            ///< negate
  /// a ∩ b = ∅, for slice-region proofs.
  [[nodiscard]] bool disjoint(NodeId a, NodeId b) {
    return b_and(a, b) == false_;
  }

  // -- Composition ------------------------------------------------------

  /// If-then-else over a predicate `p` and two diagrams, interleaved in
  /// variable order. ite(cube(rule), successor, acc) over rules in
  /// reverse match-preference order builds a table's first-match
  /// composition; this is the engine's sequence operator.
  [[nodiscard]] NodeId ite(NodeId p, NodeId t, NodeId e);

  /// Left-biased union of two partial functions: wherever `a` reaches a
  /// leaf other than `identity`, `a` wins; elsewhere `b` shows through.
  /// Folding disjoint per-row diagrams (identity = the miss verdict)
  /// unions a whole exact-match table in O(result) without the
  /// per-insert edge copying a sequential ite loop would cost.
  [[nodiscard]] NodeId overlay_first(NodeId a, NodeId b, NodeId identity);

  /// Rewrites every leaf payload through `fn(std::uint64_t) ->
  /// std::uint64_t` (action effects on interned verdicts: output
  /// defaults, action-binding accumulation).
  template <typename Fn>
  [[nodiscard]] NodeId map_leaves(NodeId root, Fn&& fn) {
    return rewrite(
        root, [this, &fn](std::uint64_t p) { return leaf(fn(p)); },
        [](NodeId) { return kInvalidNode; });
  }

  /// Cofactor: fixes every var for which `fixed(std::uint32_t var) ->
  /// std::optional<std::uint64_t>` returns a value (the bit for bit
  /// vars, the branch value for value vars) — the effect of a set-field
  /// / metadata-write action on the downstream diagram.
  template <typename Fixed>
  [[nodiscard]] NodeId restrict_with(NodeId root, Fixed&& fixed) {
    return rewrite(root, KeepLeaf{}, [this, &fixed](NodeId id) {
      const std::uint32_t var = nodes_[id].var;
      const std::optional<std::uint64_t> v = fixed(var);
      return v.has_value() ? cofactor(id, var, *v, false) : kInvalidNode;
    });
  }

  /// Cofactor onto the default branch of every value var selected by
  /// `select(std::uint32_t var) -> bool`: semantically, fixes those vars
  /// to a fresh value no edge in the diagram tests (initial metadata
  /// registers are "bound to a value no rule can match").
  template <typename Select>
  [[nodiscard]] NodeId restrict_default(NodeId root, Select&& select) {
    return rewrite(root, KeepLeaf{}, [this, &select](NodeId id) {
      const Node& n = nodes_[id];
      if (!select(n.var)) return kInvalidNode;
      expects(kind(n) == Kind::kValue,
              "restrict_default selected a bit variable");
      return n.lo;
    });
  }

  // -- Counterexample extraction ---------------------------------------

  /// First path on which two canonical diagrams (same store, same
  /// universe) reach different leaves, with the two leaf payloads.
  /// nullopt iff a == b.
  struct Divergence {
    std::vector<PathStep> path;
    std::uint64_t left = 0;
    std::uint64_t right = 0;
  };
  [[nodiscard]] std::optional<Divergence> first_divergence(NodeId a,
                                                           NodeId b);

  /// Largest edge value tested on `var` anywhere in the diagram (for
  /// materializing fresh default-branch values); nullopt when the
  /// diagram never branches on `var`.
  [[nodiscard]] std::optional<std::uint64_t> max_edge_value(
      NodeId root, std::uint32_t var) const;

  [[nodiscard]] const StoreStats& stats() const noexcept { return stats_; }
  [[nodiscard]] std::size_t num_nodes() const noexcept {
    return nodes_.size();
  }

  /// Garbage collection for a store that lives across checks: keeps the
  /// nodes reachable from `roots` (and the boolean leaves), slides them
  /// down inside the arena in creation order and rewrites `roots` in
  /// place. The unique table is rebuilt at its capacity and the operator
  /// cache is emptied; no buffer is freed or reallocated. Leaf payloads
  /// and the lifetime tallies are unchanged; any other NodeId is
  /// invalidated.
  void compact(std::span<NodeId> roots);

 private:
  /// Ordering variable of leaves: after every real variable.
  static constexpr std::uint32_t kLeafVar = 0xffffffffu;

  enum class Kind : std::uint8_t { kLeaf, kBit, kValue };
  /// 20 bytes. The kind is implicit: leaves carry kLeafVar, and a value
  /// node always keeps at least one edge after reduction. A leaf keeps
  /// its payload in lo (low word) and hi (high word); a value node keeps
  /// its first edge's pool index in hi.
  struct Node {
    std::uint32_t var = 0;
    std::uint32_t hash = 0;  ///< content hash, cached for table growth
    NodeId lo = 0;           ///< bit: 0-branch; value: default child
    NodeId hi = 0;           ///< bit: 1-branch; value: first edge
    std::uint32_t edges_count = 0;  ///< value: its edges; otherwise 0
  };
  static Kind kind(const Node& n) noexcept {
    if (n.var == kLeafVar) return Kind::kLeaf;
    return n.edges_count != 0 ? Kind::kValue : Kind::kBit;
  }
  static std::uint64_t payload_of(const Node& n) noexcept {
    return (std::uint64_t{n.hi} << 32) | n.lo;
  }
  /// NodeIds stay below 2^kTagShift (the budget is capped there), so a
  /// cache entry keeps its operator tag above its first operand.
  static constexpr unsigned kTagShift = 29;
  /// One slot of the operator cache (16 bytes); key 0 marks an empty slot.
  struct CacheEntry {
    std::uint32_t key = 0;  ///< first operand | tag << kTagShift
    NodeId b = 0;
    NodeId c = 0;
    NodeId result = 0;
  };
  /// Rewriter leaf hook of the restrictions: leaves are unchanged.
  struct KeepLeaf {
    NodeId operator()(std::uint64_t) const noexcept { return kInvalidNode; }
  };

  [[nodiscard]] std::uint32_t var_of(NodeId id) const noexcept {
    return nodes_[id].var;
  }
  /// Cofactor of `id` under (var = branch); `id` itself when it does not
  /// branch on `var`.
  [[nodiscard]] NodeId cofactor(NodeId id, std::uint32_t var,
                                std::uint64_t branch_value,
                                bool take_default) const;
  /// A value node's edges; empty for the other kinds.
  [[nodiscard]] std::span<const Edge> edges_of(const Node& n) const noexcept {
    if (n.edges_count == 0) return {};
    return {edge_pool_.data() + n.hi, n.edges_count};
  }
  /// Sorted union of the edge values the operands test on `var`.
  [[nodiscard]] std::vector<std::uint64_t> branch_values(
      std::initializer_list<NodeId> ids, std::uint32_t var) const;
  /// Returns the interned twin of `n` (whose edges, for a value node,
  /// sit at the tail of edge_pool_) or appends it.
  [[nodiscard]] NodeId intern(const Node& n);
  [[nodiscard]] bool same_content(const Node& a, const Node& b) const;
  /// Content hash of `n`; a value node's edges must sit in edge_pool_.
  [[nodiscard]] std::uint32_t content_hash(const Node& n) const noexcept;
  void grow_unique();
  /// Rebuilds the unique table at `slots` from the cached node hashes.
  void rehash_unique(std::size_t slots);
  void check_budget() const;

  /// Operator cache probe: the cached result, or kInvalidNode on a miss.
  [[nodiscard]] NodeId cache_find(std::uint32_t tag, NodeId a, NodeId b,
                                  NodeId c);
  void cache_store(std::uint32_t tag, NodeId a, NodeId b, NodeId c,
                   NodeId result);

  [[nodiscard]] NodeId apply_bool(NodeId a, NodeId b, bool is_and);
  bool find_divergence(NodeId a, NodeId b, std::vector<PathStep>& path,
                       Divergence& out);

  /// The one rewriter behind map_leaves / restrict_with /
  /// restrict_default. `on_leaf(payload)` is a leaf's image, or
  /// kInvalidNode to keep the leaf; `cut(id)` is the node whose image
  /// replaces inner node `id` (a cofactor), or kInvalidNode to rebuild
  /// `id` over the images of its children.
  template <typename OnLeaf, typename Cut>
  NodeId rewrite(NodeId root, const OnLeaf& on_leaf, const Cut& cut) {
    if (is_leaf(root)) {
      const NodeId image = on_leaf(payload_of(nodes_[root]));
      return image == kInvalidNode ? root : image;
    }
    // A fresh epoch invalidates every older memo entry in O(1). Nested
    // rewrites take later epochs; an outer rewrite only loses the
    // entries they overwrote and recomputes them.
    if (++rewrite_epoch_ == 0) {
      std::fill(rewrite_stamp_.begin(), rewrite_stamp_.end(), 0u);
      rewrite_epoch_ = 1;
    }
    // Every node the walk visits is reachable from `root`, so it exists
    // already; nodes created on the way are never looked up.
    if (rewrite_stamp_.size() < nodes_.size()) {
      rewrite_stamp_.resize(nodes_.size(), 0u);
      rewrite_image_.resize(nodes_.size(), kInvalidNode);
    }
    return rewrite_node(root, rewrite_epoch_, on_leaf, cut);
  }

  template <typename OnLeaf, typename Cut>
  NodeId rewrite_node(NodeId id, std::uint32_t epoch, const OnLeaf& on_leaf,
                      const Cut& cut) {
    if (rewrite_stamp_[id] == epoch) return rewrite_image_[id];
    // Copy: building images may reallocate nodes_.
    const Node n = nodes_[id];
    NodeId image = kInvalidNode;
    if (n.var == kLeafVar) {
      image = on_leaf(payload_of(n));
      if (image == kInvalidNode) return id;  // kept leaves skip the memo
    } else if (const NodeId to = cut(id); to != kInvalidNode) {
      image = rewrite_node(to, epoch, on_leaf, cut);
    } else if (n.edges_count == 0) {
      const NodeId lo = rewrite_node(n.lo, epoch, on_leaf, cut);
      const NodeId hi = rewrite_node(n.hi, epoch, on_leaf, cut);
      image = bit_node(n.var, lo, hi);
    } else {
      const NodeId def = rewrite_node(n.lo, epoch, on_leaf, cut);
      std::vector<Edge> edges(n.edges_count);
      for (std::uint32_t i = 0; i < n.edges_count; ++i) {
        const Edge e = edge_pool_[n.hi + i];
        edges[i] = {e.first, rewrite_node(e.second, epoch, on_leaf, cut)};
      }
      image = value_node(n.var, edges, def);
    }
    rewrite_stamp_[id] = epoch;
    rewrite_image_[id] = image;
    return image;
  }

  std::size_t max_nodes_;
  std::vector<Node> nodes_;
  std::vector<Edge> edge_pool_;
  /// Unique table: open addressing (linear probing) over NodeIds,
  /// kInvalidNode marks a free slot; at most half full.
  std::vector<NodeId> unique_;
  /// Operator cache, direct-mapped and lossy; keeps a slot per two nodes
  /// interned since it was last emptied (cache_base_: the store's size
  /// then). A lost entry only costs a recomputation: canonicity comes
  /// from unique_. Both persist across the checks of a kept store.
  std::vector<CacheEntry> cache_;
  std::size_t cache_base_ = 0;
  /// Rewriter memo: image of node id under the rewrite whose epoch
  /// rewrite_stamp_[id] holds.
  std::vector<std::uint32_t> rewrite_stamp_;
  std::vector<NodeId> rewrite_image_;
  std::uint32_t rewrite_epoch_ = 0;
  StoreStats stats_;
  NodeId false_ = 0;
  NodeId true_ = 0;
};

}  // namespace maton::analysis::symbolic

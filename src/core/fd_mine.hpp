// Functional-dependency discovery from table instances.
//
// §3 leaves open *how* dependencies are known during decomposition and
// notes they may be intrinsic to the data-plane model or transient
// data-level dependencies of the current configuration. This module
// recovers the complete set of minimal FDs that hold in a concrete table
// instance, which is exactly the "transient" notion — and, for workloads
// generated from a model (gwlb, l3fwd), coincides with the intrinsic one.
//
// Two miners are provided:
//  * mine_fds_naive — O(k · 2^k · n) subset enumeration; simple enough to
//    serve as the test oracle.
//  * mine_fds_tane  — the level-wise lattice algorithm of Huhtala et al.
//    (TANE, 1999) with stripped partitions and rhs⁺ pruning; the
//    production path and the subject of the A2 scalability ablation.
//
// mine_fds_tane is an *engine*: per-level work fans out over a thread
// pool (MineOptions::threads) with a deterministic merge, so the emitted
// FdSet is bit-identical — same dependencies, same order — for every
// thread count including 0 (strictly sequential). An optional
// PartitionCache memoizes stripped partitions across calls, keyed by
// column-content fingerprints, so re-mining after a control-plane churn
// event only recomputes partitions whose columns actually changed.
#pragma once

#include <cstddef>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/fd.hpp"
#include "core/table.hpp"

namespace maton::core {

namespace tane {
class PartitionCache;
}  // namespace tane

struct MineOptions {
  /// Sentinel for `threads`: one worker lane per hardware thread.
  static constexpr std::size_t kAutoThreads = ~std::size_t{0};

  /// Upper bound on LHS size; dependencies with larger LHS are not
  /// reported. 0 means "no bound".
  std::size_t max_lhs = 0;

  /// Worker lanes for the TANE engine. 0 runs strictly sequentially on
  /// the calling thread (no pool interaction at all); kAutoThreads sizes
  /// to the hardware. The mined FdSet is identical for every setting.
  /// Ignored by mine_fds_naive.
  std::size_t threads = kAutoThreads;

  /// Optional cross-call stripped-partition cache; see PartitionCache.
  /// Not owned. Ignored by mine_fds_naive.
  tane::PartitionCache* cache = nullptr;
};

/// All minimal non-trivial FDs X → A (singleton RHS) holding in `table`,
/// by direct subset enumeration. Deterministic output order.
/// Tables wider than AttrSet capacity (64 columns) are rejected.
[[nodiscard]] FdSet mine_fds_naive(const Table& table, MineOptions opts = {});

/// Same dependency set as mine_fds_naive (up to order), via the TANE
/// lattice. Output is deterministic and independent of opts.threads.
[[nodiscard]] FdSet mine_fds_tane(const Table& table, MineOptions opts = {});

/// Stripped-partition machinery, exposed for tests and benchmarks.
namespace tane {

/// A stripped partition: the equivalence classes of rows under "agrees on
/// the attribute set", with singleton classes removed.
struct Partition {
  std::vector<std::vector<std::uint32_t>> classes;

  /// ||π||: number of rows covered by non-singleton classes.
  [[nodiscard]] std::size_t covered() const noexcept;
  /// e(π) = ||π|| − |π|, the TANE error measure; X → A holds iff
  /// e(π(X)) == e(π(X ∪ {A})).
  [[nodiscard]] std::size_t error() const noexcept;
  /// A set is a superkey iff its stripped partition is empty.
  [[nodiscard]] bool is_key_partition() const noexcept {
    return classes.empty();
  }
};

/// Partition of `table`'s rows by the single column `col`.
[[nodiscard]] Partition partition_by_column(const Table& table,
                                            std::size_t col);

/// Reusable arena for product(): the num_rows-sized owner map and the
/// per-class buckets persist across calls so the hot lattice loop stops
/// allocating per product. One scratch per worker lane; a scratch must
/// not be shared between concurrently running products.
struct ProductScratch {
  /// Row → class id within partition `a`; valid iff stamp[row] == epoch.
  std::vector<std::int32_t> owner;
  /// Row → epoch of the product call that last wrote owner[row]. The
  /// epoch stamp replaces the O(num_rows) owner reset per call.
  std::vector<std::size_t> stamp;
  std::size_t epoch = 0;
  /// Per-class accumulation buckets; capacities persist across calls.
  std::vector<std::vector<std::uint32_t>> buckets;
  /// Bucket indices touched while scanning one class of `b`.
  std::vector<std::size_t> touched;
};

/// Product π(X)·π(Y) over a table with `num_rows` rows.
[[nodiscard]] Partition product(const Partition& a, const Partition& b,
                                std::size_t num_rows);

/// As above, reusing `scratch` instead of allocating working state.
[[nodiscard]] Partition product(const Partition& a, const Partition& b,
                                std::size_t num_rows, ProductScratch& scratch);

/// Cache key ingredients: content fingerprints of each column of `table`
/// (value sequence in row order). Two tables assigning the same value
/// sequence to a column set X have the same π(X), even if other columns
/// differ — this is what lets the churn loop reuse partitions for the
/// columns an intent did not touch.
[[nodiscard]] std::vector<std::uint64_t> column_fingerprints(
    const Table& table);

/// Fingerprint of `table` restricted to `attrs`: mixes the member
/// columns' fingerprints (ascending order) with the row count. Serves as
/// the PartitionCache key together with AttrSet::raw().
[[nodiscard]] std::uint64_t subset_fingerprint(
    const std::vector<std::uint64_t>& col_fps, std::size_t num_rows,
    AttrSet attrs);

/// Memoizes stripped partitions across mine_fds_tane calls.
///
/// Keyed by (subset_fingerprint, AttrSet::raw), so entries are reusable
/// exactly when the keyed columns' contents are unchanged; mutating a
/// table (add_row, or rebuilding it after a churn intent) changes the
/// fingerprints of the affected columns and the stale entries simply
/// stop being found. Thread-safe: the mining engine consults it from
/// worker lanes. Bounded: when `capacity` entries are exceeded the cache
/// is wholesale-reset (partitions regenerate on the next mine; eviction
/// precision is not worth the bookkeeping at this size).
class PartitionCache {
 public:
  explicit PartitionCache(std::size_t capacity = 1 << 16)
      : capacity_(capacity) {}

  struct Stats {
    std::size_t hits = 0;
    std::size_t misses = 0;
    std::size_t resets = 0;
  };

  /// The cached partition for the key, or nullptr (counts a hit/miss).
  [[nodiscard]] std::shared_ptr<const Partition> find(std::uint64_t fp,
                                                      std::uint64_t attrs_raw);

  /// Inserts (first writer wins) and returns the resident partition.
  std::shared_ptr<const Partition> put(std::uint64_t fp,
                                       std::uint64_t attrs_raw,
                                       std::shared_ptr<const Partition> p);

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;
  void clear();

 private:
  struct Key {
    std::uint64_t fp;
    std::uint64_t attrs;
    friend bool operator==(const Key&, const Key&) = default;
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const noexcept {
      std::uint64_t h = k.fp ^ (k.attrs * 0x9e3779b97f4a7c15ULL);
      h ^= h >> 33;
      h *= 0xff51afd7ed558ccdULL;
      h ^= h >> 33;
      return static_cast<std::size_t>(h);
    }
  };

  mutable std::mutex mutex_;
  std::unordered_map<Key, std::shared_ptr<const Partition>, KeyHash> map_;
  std::size_t capacity_;
  Stats stats_;
};

}  // namespace tane

}  // namespace maton::core

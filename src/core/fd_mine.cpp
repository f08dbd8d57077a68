#include "core/fd_mine.hpp"

#include <algorithm>
#include <chrono>
#include <string>
#include <thread>
#include <unordered_map>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace maton::core {

namespace {

/// Both miners represent column sets as AttrSet (one machine word), so
/// schemas beyond its capacity cannot be mined; Schema::all() would
/// silently truncate and the naive miner's Gosper enumeration would shift
/// by ≥ 64 bits (UB). Reject loudly instead.
void ensure_minable(const Table& table) {
  ensures(table.num_cols() <= AttrSet::kCapacity,
          "FD mining supports at most 64 columns (AttrSet capacity); "
          "project the table onto a narrower attribute set first");
}

/// Enumerates subsets of `pool` in increasing-cardinality order, skipping
/// supersets of anything already found, so reported LHS sets are minimal
/// by construction.
void mine_for_rhs(const Table& table, std::size_t rhs, std::size_t max_lhs,
                  FdSet& out) {
  AttrSet pool = table.schema().all();
  pool.erase(rhs);
  std::vector<std::size_t> cols(pool.begin(), pool.end());
  const std::size_t n = cols.size();
  const std::size_t bound = max_lhs == 0 ? n : std::min(max_lhs, n);

  std::vector<AttrSet> found;
  for (std::size_t size = 0; size <= bound; ++size) {
    // All n-bit masks with `size` bits set, ascending (Gosper's hack).
    std::vector<std::uint64_t> masks;
    if (size == 0) {
      masks.push_back(0);
    } else if (size <= n) {
      std::uint64_t mask = (std::uint64_t{1} << size) - 1;
      const std::uint64_t limit = std::uint64_t{1} << n;
      while (mask < limit) {
        masks.push_back(mask);
        const std::uint64_t c = mask & (~mask + 1);
        const std::uint64_t r = mask + c;
        mask = (((r ^ mask) >> 2) / c) | r;
      }
    }
    for (std::uint64_t mask : masks) {
      AttrSet lhs;
      for (std::size_t i = 0; i < n; ++i) {
        if ((mask >> i) & 1) lhs.insert(cols[i]);
      }
      const bool dominated =
          std::any_of(found.begin(), found.end(),
                      [&](const AttrSet& f) { return f.subset_of(lhs); });
      if (dominated) continue;
      if (fd_holds(table, {lhs, AttrSet::single(rhs)})) {
        found.push_back(lhs);
        out.add(lhs, AttrSet::single(rhs));
      }
    }
  }
}

}  // namespace

FdSet mine_fds_naive(const Table& table, MineOptions opts) {
  ensure_minable(table);
  FdSet out;
  for (std::size_t rhs = 0; rhs < table.num_cols(); ++rhs) {
    mine_for_rhs(table, rhs, opts.max_lhs, out);
  }
  return out;
}

namespace tane {

std::size_t Partition::covered() const noexcept {
  std::size_t total = 0;
  for (const auto& cls : classes) total += cls.size();
  return total;
}

std::size_t Partition::error() const noexcept {
  return covered() - classes.size();
}

Partition partition_by_column(const Table& table, std::size_t col) {
  const Column& column = table.column(col);
  Partition out;
  if (column.interned()) {
    // Ids are dense pool indices preserving equality, so the groups are
    // a direct-indexed array — no hashing at all.
    const std::span<const std::uint32_t> ids = column.ids();
    std::vector<std::vector<std::uint32_t>> groups(column.pool().size());
    for (std::size_t i = 0; i < ids.size(); ++i) {
      groups[ids[i]].push_back(static_cast<std::uint32_t>(i));
    }
    for (auto& rows : groups) {
      if (rows.size() >= 2) out.classes.push_back(std::move(rows));
    }
  } else {
    std::unordered_map<Value, std::vector<std::uint32_t>> groups;
    groups.reserve(table.num_rows());
    for (std::size_t i = 0; i < column.size(); ++i) {
      groups[column[i]].push_back(static_cast<std::uint32_t>(i));
    }
    for (auto& [value, rows] : groups) {
      if (rows.size() >= 2) out.classes.push_back(std::move(rows));
    }
  }
  // Deterministic class order: by first (smallest) row index.
  std::sort(out.classes.begin(), out.classes.end(),
            [](const auto& a, const auto& b) { return a.front() < b.front(); });
  return out;
}

Partition product(const Partition& a, const Partition& b,
                  std::size_t num_rows, ProductScratch& scratch) {
  // Stripped-partition product (TANE §6): probe b's classes against a's
  // class ids; only groups of two or more rows survive. All working
  // state lives in the scratch arena; the only allocations are the
  // output's own classes.
  if (scratch.owner.size() < num_rows) {
    scratch.owner.resize(num_rows, -1);
    scratch.stamp.resize(num_rows, 0);
  }
  // Epoch 0 means "never written", so a fresh scratch starts at epoch 1.
  if (++scratch.epoch == 0) {
    std::fill(scratch.stamp.begin(), scratch.stamp.end(), std::size_t{0});
    scratch.epoch = 1;
  }
  const std::size_t epoch = scratch.epoch;

  for (std::size_t i = 0; i < a.classes.size(); ++i) {
    for (std::uint32_t t : a.classes[i]) {
      scratch.owner[t] = static_cast<std::int32_t>(i);
      scratch.stamp[t] = epoch;
    }
  }
  if (scratch.buckets.size() < a.classes.size()) {
    scratch.buckets.resize(a.classes.size());
  }
  Partition out;
  std::vector<std::size_t>& touched = scratch.touched;
  for (const auto& cls : b.classes) {
    touched.clear();
    for (std::uint32_t t : cls) {
      if (scratch.stamp[t] != epoch) continue;
      const auto g = static_cast<std::size_t>(scratch.owner[t]);
      auto& bucket = scratch.buckets[g];
      if (bucket.empty()) touched.push_back(g);
      bucket.push_back(t);
    }
    for (std::size_t g : touched) {
      auto& bucket = scratch.buckets[g];
      if (bucket.size() >= 2) {
        // Copy (not move): the output owns fresh storage while the
        // bucket keeps its capacity for the next product.
        out.classes.emplace_back(bucket.begin(), bucket.end());
      }
      bucket.clear();
    }
  }
  std::sort(out.classes.begin(), out.classes.end(),
            [](const auto& x, const auto& y) { return x.front() < y.front(); });
  return out;
}

Partition product(const Partition& a, const Partition& b,
                  std::size_t num_rows) {
  ProductScratch scratch;
  return product(a, b, num_rows, scratch);
}

std::vector<std::uint64_t> column_fingerprints(const Table& table) {
  const std::size_t k = table.num_cols();
  // The table caches these per column with dirty-tracking, so a mine
  // after a cell-wise patch only rehashes the touched columns. Calling
  // this before the parallel lattice walk also warms the cache on the
  // calling thread (Table caches are unsynchronized).
  std::vector<std::uint64_t> fps(k);
  for (std::size_t c = 0; c < k; ++c) fps[c] = table.column_fingerprint(c);
  return fps;
}

std::uint64_t subset_fingerprint(const std::vector<std::uint64_t>& col_fps,
                                 std::size_t num_rows, AttrSet attrs) {
  std::uint64_t h = 0x243f6a8885a308d3ULL ^ num_rows;
  for (std::size_t c : attrs) {
    h ^= col_fps[c] + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

std::shared_ptr<const Partition> PartitionCache::find(
    std::uint64_t fp, std::uint64_t attrs_raw) {
  static obs::Counter& hit_count = obs::MetricRegistry::global().counter(
      "maton_fdmine_partition_cache_hits_total");
  static obs::Counter& miss_count = obs::MetricRegistry::global().counter(
      "maton_fdmine_partition_cache_misses_total");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = map_.find(Key{fp, attrs_raw});
  if (it == map_.end()) {
    ++stats_.misses;
    miss_count.add();
    return nullptr;
  }
  ++stats_.hits;
  hit_count.add();
  return it->second;
}

std::shared_ptr<const Partition> PartitionCache::put(
    std::uint64_t fp, std::uint64_t attrs_raw,
    std::shared_ptr<const Partition> p) {
  static obs::Counter& evictions = obs::MetricRegistry::global().counter(
      "maton_fdmine_partition_cache_evictions_total");
  std::lock_guard<std::mutex> lock(mutex_);
  if (map_.size() >= capacity_) {
    evictions.add(map_.size());
    map_.clear();
    ++stats_.resets;
  }
  const auto [it, inserted] =
      map_.try_emplace(Key{fp, attrs_raw}, std::move(p));
  return it->second;
}

std::size_t PartitionCache::size() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return map_.size();
}

PartitionCache::Stats PartitionCache::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void PartitionCache::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  map_.clear();
  stats_ = Stats{};
}

}  // namespace tane

namespace {

struct Node {
  std::shared_ptr<const tane::Partition> partition;
  std::size_t error = 0;  // e(π), computed once at node creation
  AttrSet rhs_candidates;  // TANE's C⁺(X)
};

/// One lattice level, keyed by the attribute set's raw bits.
using Level = std::unordered_map<std::uint64_t, Node>;

std::size_t resolve_workers(std::size_t threads) {
  if (threads == MineOptions::kAutoThreads) {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
  }
  return threads == 0 ? 1 : threads;
}

/// fn(i, worker) for i in [0, n): inline when sequential (never touching
/// the pool, so opts.threads == 0 cannot spawn threads as a side effect),
/// fanned out over the shared pool otherwise.
template <typename Fn>
void for_each_index(util::ThreadPool* pool, std::size_t workers,
                    std::size_t n, const Fn& fn) {
  if (pool == nullptr || workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  pool->parallel_for(n, workers, fn);
}

}  // namespace

FdSet mine_fds_tane(const Table& table, MineOptions opts) {
  static obs::Counter& mines =
      obs::MetricRegistry::global().counter("maton_fdmine_mines_total");
  const obs::TraceSpan mine_span("tane_mine");
  mines.add();
  ensure_minable(table);
  const std::size_t k = table.num_cols();
  const std::size_t n = table.num_rows();
  const AttrSet universe = table.schema().all();
  FdSet out;
  if (k == 0) return out;

  const std::size_t workers = resolve_workers(opts.threads);
  util::ThreadPool* pool =
      workers > 1 ? &util::ThreadPool::shared() : nullptr;
  std::vector<tane::ProductScratch> scratch(workers);

  // Cache plumbing: fingerprints are only computed when a cache is
  // attached (one O(n·k) table scan per call).
  std::vector<std::uint64_t> col_fps;
  if (opts.cache != nullptr) col_fps = tane::column_fingerprints(table);
  const auto cache_find =
      [&](AttrSet attrs) -> std::shared_ptr<const tane::Partition> {
    if (opts.cache == nullptr) return nullptr;
    return opts.cache->find(tane::subset_fingerprint(col_fps, n, attrs),
                            attrs.raw());
  };
  const auto publish = [&](AttrSet attrs, tane::Partition p) {
    auto sp = std::make_shared<const tane::Partition>(std::move(p));
    if (opts.cache == nullptr) return sp;
    return opts.cache->put(tane::subset_fingerprint(col_fps, n, attrs),
                           attrs.raw(), std::move(sp));
  };

  // A dependency X → A is discovered at the lattice node X ∪ {A}, so we
  // must visit levels up to max_lhs + 1.
  const std::size_t max_level = opts.max_lhs == 0 ? k : opts.max_lhs + 1;
  // e(π(∅)): one class containing every row.
  const std::size_t empty_error = n == 0 ? 0 : n - 1;

  // Level 1: single-column partitions, one task per column.
  std::vector<std::shared_ptr<const tane::Partition>> singles(k);
  for_each_index(pool, workers, k, [&](std::size_t c, std::size_t) {
    const AttrSet x = AttrSet::single(c);
    if (auto hit = cache_find(x)) {
      singles[c] = std::move(hit);
      return;
    }
    singles[c] = publish(x, tane::partition_by_column(table, c));
  });

  Level prev;
  Level cur;
  for (std::size_t c = 0; c < k; ++c) {
    cur.emplace(AttrSet::single(c).raw(),
                Node{singles[c], singles[c]->error(), universe});
  }

  // All fan-out/merge below follows ascending node keys, so the emitted
  // FdSet (contents *and* order) is identical for every worker count.
  for (std::size_t depth = 1; depth <= max_level && !cur.empty(); ++depth) {
    const obs::TraceSpan level_span("tane_level");
    [[maybe_unused]] const auto level_start =
        std::chrono::steady_clock::now();
    std::vector<std::uint64_t> keys;
    keys.reserve(cur.size());
    for (const auto& [raw, node] : cur) keys.push_back(raw);
    std::sort(keys.begin(), keys.end());

    // COMPUTE_DEPENDENCIES: for each node X, test X∖{A} → A for every
    // candidate A ∈ X ∩ C⁺(X) via the partition-error criterion. Nodes
    // are independent (they read the immutable prev level and mutate
    // only their own C⁺), so they fan out; discovered FDs are staged per
    // node and merged in key order afterwards.
    std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> staged(
        keys.size());
    for_each_index(pool, workers, keys.size(), [&](std::size_t i,
                                                   std::size_t) {
      Node& node = cur.find(keys[i])->second;
      const AttrSet x = AttrSet::from_raw(keys[i]);
      const AttrSet check = x & node.rhs_candidates;
      for (std::size_t a : check) {
        AttrSet lhs = x;
        lhs.erase(a);
        std::size_t lhs_error;
        if (lhs.empty()) {
          lhs_error = empty_error;
        } else {
          // Candidate generation guarantees every (depth−1)-subset
          // survived the previous level's pruning.
          const auto it = prev.find(lhs.raw());
          ensures(it != prev.end(), "TANE: missing lattice subset");
          lhs_error = it->second.error;
        }
        if (lhs_error == node.error) {
          staged[i].push_back({lhs.raw(), a});
          node.rhs_candidates.erase(a);
          node.rhs_candidates -= (universe - x);
        }
      }
    });
    for (const auto& found : staged) {
      for (const auto& [lhs_raw, a] : found) {
        out.add(AttrSet::from_raw(lhs_raw), AttrSet::single(a));
      }
    }

    // PRUNE: only the empty-C⁺ rule. (TANE's key-pruning is a pure
    // optimization requiring compensating emissions; at match-action
    // schema widths the lattice is small enough to skip it, keeping the
    // algorithm straightforwardly complete.)
    for (auto it = cur.begin(); it != cur.end();) {
      it = it->second.rhs_candidates.empty() ? cur.erase(it) : std::next(it);
    }

    // GENERATE_NEXT_LEVEL: Apriori-style prefix join; a candidate is kept
    // only when all of its depth-size subsets survived. Enumeration is
    // bitset algebra (sequential, cheap); the partition products — the
    // expensive part — fan out below.
    keys.clear();
    for (const auto& [raw, node] : cur) keys.push_back(raw);
    std::sort(keys.begin(), keys.end());

    struct Candidate {
      AttrSet xy;
      std::uint64_t a_raw = 0;
      std::uint64_t b_raw = 0;
      AttrSet rhs_candidates;
    };
    std::vector<Candidate> cands;
    Level next;
    for (std::size_t i = 0; i < keys.size(); ++i) {
      for (std::size_t j = i + 1; j < keys.size(); ++j) {
        const AttrSet a = AttrSet::from_raw(keys[i]);
        const AttrSet b = AttrSet::from_raw(keys[j]);
        const AttrSet xy = a | b;
        if (xy.size() != depth + 1) continue;
        if (next.count(xy.raw()) != 0) continue;
        bool all_present = true;
        AttrSet rhs = universe;
        for (std::size_t e : xy) {
          AttrSet sub = xy;
          sub.erase(e);
          const auto it = cur.find(sub.raw());
          if (it == cur.end()) {
            all_present = false;
            break;
          }
          rhs &= it->second.rhs_candidates;
        }
        if (!all_present) continue;
        next.emplace(xy.raw(), Node{});  // reserves the slot; filled below
        cands.push_back({xy, keys[i], keys[j], rhs});
      }
    }

    std::vector<std::shared_ptr<const tane::Partition>> prods(cands.size());
    for_each_index(pool, workers, cands.size(),
                   [&](std::size_t i, std::size_t w) {
                     const Candidate& cand = cands[i];
                     if (auto hit = cache_find(cand.xy)) {
                       prods[i] = std::move(hit);
                       return;
                     }
                     prods[i] = publish(
                         cand.xy,
                         tane::product(*cur.at(cand.a_raw).partition,
                                       *cur.at(cand.b_raw).partition, n,
                                       scratch[w]));
                   });
    for (std::size_t i = 0; i < cands.size(); ++i) {
      Node& node = next.at(cands[i].xy.raw());
      node.partition = prods[i];
      node.error = prods[i]->error();
      node.rhs_candidates = cands[i].rhs_candidates;
    }

    prev = std::move(cur);
    cur = std::move(next);

    if constexpr (obs::kEnabled) {
      // Per-level lattice timing; the level label keeps the dozen or so
      // depths match-action schemas reach apart without exploding the
      // registry.
      obs::MetricRegistry::global()
          .histogram("maton_fdmine_level_ns",
                     {{"level", std::to_string(depth)}})
          .observe(static_cast<double>(
              std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - level_start)
                  .count()));
    }
  }

  return out;
}

}  // namespace maton::core

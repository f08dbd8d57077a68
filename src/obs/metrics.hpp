// Process-wide metric registry: named, labeled counters, gauges and
// log-linear histograms.
//
// The hot path is one relaxed atomic add on a per-thread shard — no
// locks, no false sharing (shards are cache-line padded) — so switch
// models and classifier kernels can bump metrics from the packet path
// and from every replay queue concurrently. Aggregation happens only on
// scrape(), which sums the shards under the registry mutex. Compiling
// with -DMATON_OBS_OFF turns every recording call into an empty inline
// function (zero instructions, zero clock reads); registration and
// scraping still compile so call sites never branch on the switch.
//
// Metric identity is (name, sorted label set). Registered metric objects
// are never deallocated while the registry lives, so call sites resolve
// a handle once (at load/setup time) and record through the raw pointer.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace maton::obs {

#if defined(MATON_OBS_OFF)
inline constexpr bool kEnabled = false;
#else
inline constexpr bool kEnabled = true;
#endif

/// Sorted-by-key label set, e.g. {{"model","eswitch"},{"table","svc"}}.
using Labels = std::vector<std::pair<std::string, std::string>>;

namespace detail {

/// Shard count for per-thread striping. Power of two; more shards than
/// this rarely helps because scrape cost grows linearly with it.
inline constexpr std::size_t kShards = 8;

/// Stable per-thread shard index in [0, kShards), assigned round-robin
/// on first use per thread.
[[nodiscard]] std::size_t shard_id() noexcept;

struct alignas(64) PaddedU64 {
  std::atomic<std::uint64_t> value{0};
};

/// fetch_add for doubles via CAS (portable across standard libraries
/// that lack std::atomic<double>::fetch_add).
inline void atomic_add(std::atomic<double>& target, double delta) noexcept {
  double cur = target.load(std::memory_order_relaxed);
  while (!target.compare_exchange_weak(cur, cur + delta,
                                       std::memory_order_relaxed)) {
  }
}

}  // namespace detail

/// Monotone event counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept {
    if constexpr (kEnabled) {
      shards_[detail::shard_id()].value.fetch_add(n,
                                                  std::memory_order_relaxed);
    } else {
      (void)n;
    }
  }

  /// Sum over shards (scrape path; monotone between concurrent adds).
  [[nodiscard]] std::uint64_t total() const noexcept {
    std::uint64_t sum = 0;
    for (const auto& s : shards_) {
      sum += s.value.load(std::memory_order_relaxed);
    }
    return sum;
  }

  void reset() noexcept {
    for (auto& s : shards_) s.value.store(0, std::memory_order_relaxed);
  }

 private:
  std::array<detail::PaddedU64, detail::kShards> shards_;
};

/// Last-write-wins instantaneous value (e.g. cache occupancy). Not
/// sharded: gauges are set at update frequency, not packet frequency,
/// and concurrent setters racing to the same label set is a semantic
/// tie, not a data race (the value is a single atomic).
class Gauge {
 public:
  void set(double v) noexcept {
    if constexpr (kEnabled) {
      value_.store(v, std::memory_order_relaxed);
    } else {
      (void)v;
    }
  }
  void add(double d) noexcept {
    if constexpr (kEnabled) {
      detail::atomic_add(value_, d);
    } else {
      (void)d;
    }
  }
  [[nodiscard]] double value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-linear histogram over non-negative values (latencies in ns,
/// chunk sizes, ...). Buckets: values below 8 are exact; above, each
/// power-of-two octave splits into 8 sub-buckets, so the relative
/// bucket-width error is bounded by 12.5% across the full uint64 range.
/// observe() truncates the sample to an integer for bucketing but
/// accumulates the exact value into sum().
class Histogram {
 public:
  static constexpr unsigned kSubBits = 3;  // 8 sub-buckets per octave
  static constexpr std::size_t kSub = std::size_t{1} << kSubBits;
  /// 8 exact small buckets + 8 per octave for octaves 3..63.
  static constexpr std::size_t kNumBuckets = kSub + (64 - kSubBits) * kSub;

  /// Bucket index holding integer value `u`.
  [[nodiscard]] static constexpr std::size_t bucket_of(
      std::uint64_t u) noexcept {
    if (u < kSub) return static_cast<std::size_t>(u);
    const unsigned octave = std::bit_width(u) - 1;  // >= kSubBits
    const std::uint64_t minor = (u >> (octave - kSubBits)) & (kSub - 1);
    return kSub + (octave - kSubBits) * kSub + static_cast<std::size_t>(minor);
  }

  /// Smallest integer value mapping to bucket `b` (inverse of bucket_of).
  [[nodiscard]] static constexpr std::uint64_t bucket_lower(
      std::size_t b) noexcept {
    if (b < kSub) return b;
    const std::size_t octave_off = (b - kSub) / kSub;
    const std::uint64_t minor = (b - kSub) % kSub;
    return (kSub + minor) << octave_off;
  }

  /// Exclusive upper bound of bucket `b` (lower bound of the next).
  [[nodiscard]] static constexpr double bucket_upper(std::size_t b) noexcept {
    if (b + 1 >= kNumBuckets) {
      return std::numeric_limits<double>::infinity();
    }
    return static_cast<double>(bucket_lower(b + 1));
  }

  Histogram() = default;
  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;
  ~Histogram();

  void observe(double v) noexcept {
    if constexpr (kEnabled) {
      const double clamped = v < 0.0 ? 0.0 : v;
      const std::uint64_t u =
          clamped >= 9.2e18 ? ~std::uint64_t{0}
                            : static_cast<std::uint64_t>(clamped);
      const std::size_t id = detail::shard_id();
      Shard* s = shards_[id].load(std::memory_order_acquire);
      if (s == nullptr) s = add_shard(id);
      if (s == nullptr) return;  // out of memory: the sample is dropped
      s->buckets[bucket_of(u)].fetch_add(1, std::memory_order_relaxed);
      detail::atomic_add(s->sum, clamped);
    } else {
      (void)v;
    }
  }

  /// Aggregated bucket counts (size kNumBuckets), exact sample sum and
  /// total count, summed over shards.
  struct Totals {
    std::vector<std::uint64_t> buckets;
    double sum = 0.0;
    std::uint64_t count = 0;
  };
  [[nodiscard]] Totals totals() const;

  void reset() noexcept;

 private:
  struct Shard {
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
    std::atomic<double> sum{0.0};
    // Pad to a cache line past the sum so adjacent shards' sums don't
    // false-share.
    char pad[64];
  };
  /// Installs a zeroed shard at `id` unless another thread did first;
  /// returns the installed one (nullptr only when allocation fails).
  [[nodiscard]] Shard* add_shard(std::size_t id) noexcept;

  /// Shards are allocated by the first observe() landing on them (4 KB
  /// each): a histogram only one thread records into holds one shard,
  /// not eight. A program registers a lookup histogram per table, so
  /// eager shards cost 32 KB × tables of zeroed, resident memory.
  std::array<std::atomic<Shard*>, detail::kShards> shards_{};
};

enum class MetricKind { kCounter, kGauge, kHistogram };

[[nodiscard]] std::string_view to_string(MetricKind kind) noexcept;

/// Point-in-time aggregated view of one metric.
struct MetricSnapshot {
  std::string name;
  Labels labels;
  MetricKind kind = MetricKind::kCounter;
  /// Counter total or gauge value.
  double value = 0.0;
  /// Histogram data (kHistogram only): (exclusive upper bound, count)
  /// for every non-empty bucket, in ascending bucket order.
  std::vector<std::pair<double, std::uint64_t>> buckets;
  double sum = 0.0;
  std::uint64_t count = 0;
};

/// Deterministically ordered scrape: metrics sorted by (name, labels).
struct Snapshot {
  std::vector<MetricSnapshot> metrics;
};

/// Owns every registered metric. Registration is mutexed (cold path);
/// recording goes through the returned handles without touching the
/// registry again.
class MetricRegistry {
 public:
  MetricRegistry();
  MetricRegistry(const MetricRegistry&) = delete;
  MetricRegistry& operator=(const MetricRegistry&) = delete;
  ~MetricRegistry();

  /// The process-wide registry every instrumentation site uses.
  [[nodiscard]] static MetricRegistry& global();

  /// Finds or creates the metric. Labels need not be pre-sorted; they
  /// are normalized to ascending key order. Registering the same
  /// (name, labels) with a different kind is a contract violation.
  [[nodiscard]] Counter& counter(std::string_view name, Labels labels = {});
  [[nodiscard]] Gauge& gauge(std::string_view name, Labels labels = {});
  [[nodiscard]] Histogram& histogram(std::string_view name,
                                     Labels labels = {});

  [[nodiscard]] Snapshot scrape() const;

  /// How many counter/gauge/histogram calls (registrations and repeat
  /// resolutions alike) this registry has served. Each is a locked map
  /// walk, so a path that records through cached handles adds none;
  /// tests read the difference across a call to see what it resolved.
  [[nodiscard]] std::uint64_t lookups() const noexcept;

  /// Zeroes every registered metric's value. Registrations (and handed-
  /// out handles) stay valid — this resets data, not identity.
  void reset_values();

 private:
  struct Entry;
  struct State;
  Entry& find_or_create(std::string_view name, Labels labels,
                        MetricKind kind);
  std::unique_ptr<State> state_;
};

}  // namespace maton::obs

#include "obs/metrics.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <vector>

#include "util/contract.hpp"
#include "util/thread_pool.hpp"

namespace maton::obs {
namespace {

#if defined(MATON_OBS_OFF)
// The suite below exercises live metric state; under MATON_OBS_OFF every
// mutator is compiled to an empty body, which ScrapeIsEmptyWhenCompiledOut
// covers.
TEST(MetricsCompiledOut, ScrapeIsEmptyWhenCompiledOut) {
  MetricRegistry registry;
  registry.counter("maton_test_off").add(17);
  const Snapshot snap = registry.scrape();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].value, 0.0);
}
#else

TEST(Counter, AddAndTotal) {
  MetricRegistry registry;
  Counter& c = registry.counter("maton_test_total");
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Registry, SameNameAndLabelsReturnsSameMetric) {
  MetricRegistry registry;
  Counter& a = registry.counter("maton_test_total", {{"t", "x"}});
  Counter& b = registry.counter("maton_test_total", {{"t", "x"}});
  Counter& other = registry.counter("maton_test_total", {{"t", "y"}});
  EXPECT_EQ(&a, &b);
  EXPECT_NE(&a, &other);
}

TEST(Registry, LabelOrderDoesNotMatter) {
  MetricRegistry registry;
  Counter& a =
      registry.counter("maton_test_total", {{"a", "1"}, {"b", "2"}});
  Counter& b =
      registry.counter("maton_test_total", {{"b", "2"}, {"a", "1"}});
  EXPECT_EQ(&a, &b);
}

TEST(Registry, KindMismatchIsContractViolation) {
  MetricRegistry registry;
  (void)registry.counter("maton_test_metric");
  EXPECT_THROW((void)registry.gauge("maton_test_metric"),
               ContractViolation);
}

TEST(Registry, ConcurrentRegistrationAndAddsUnderThreadPool) {
  MetricRegistry registry;
  util::ThreadPool pool(4);
  constexpr std::size_t kTasks = 64;
  constexpr std::size_t kAddsPerTask = 10000;
  // Every task hammers the same counter plus a per-(task % 8) labeled
  // one, registering through the full name-lookup path each iteration so
  // registration, lookup, and shard adds all race.
  pool.parallel_for(kTasks, pool.max_parallelism(),
                    [&](std::size_t task, std::size_t /*worker*/) {
                      const std::string lane =
                          std::to_string(task % 8);
                      for (std::size_t i = 0; i < kAddsPerTask; ++i) {
                        registry.counter("maton_test_shared_total").add();
                        registry
                            .counter("maton_test_lane_total",
                                     {{"lane", lane}})
                            .add(2);
                        registry.histogram("maton_test_lat").observe(i);
                      }
                    });
  EXPECT_EQ(registry.counter("maton_test_shared_total").total(),
            kTasks * kAddsPerTask);
  std::uint64_t lane_sum = 0;
  for (std::size_t lane = 0; lane < 8; ++lane) {
    lane_sum += registry
                    .counter("maton_test_lane_total",
                             {{"lane", std::to_string(lane)}})
                    .total();
  }
  EXPECT_EQ(lane_sum, kTasks * kAddsPerTask * 2);
  EXPECT_EQ(registry.histogram("maton_test_lat").totals().count,
            kTasks * kAddsPerTask);
}

TEST(Histogram, BucketBoundaries) {
  // Values below kSub are exact buckets.
  for (std::uint64_t v = 0; v < 8; ++v) {
    EXPECT_EQ(Histogram::bucket_of(v), v) << v;
  }
  // From 8 up, 8 sub-buckets per octave; boundaries land on
  // lower <= v < upper for every bucket.
  const std::uint64_t probes[] = {8,   9,    15,  16,  17,  31,
                                  32,  63,   64,  100, 1023, 1024,
                                  1u << 20,  (1u << 20) + 1,
                                  std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : probes) {
    const std::size_t b = Histogram::bucket_of(v);
    ASSERT_LT(b, Histogram::kNumBuckets) << v;
    EXPECT_LE(Histogram::bucket_lower(b), v) << v;
    if (b + 1 < Histogram::kNumBuckets) {
      EXPECT_LT(v, Histogram::bucket_upper(b)) << v;
    }
  }
  // Buckets are monotone: lower bounds strictly increase.
  for (std::size_t b = 1; b < Histogram::kNumBuckets; ++b) {
    EXPECT_GT(Histogram::bucket_lower(b), Histogram::bucket_lower(b - 1))
        << b;
  }
}

// Golden bucket map at the power-of-two edges: the exact index and
// [lower, upper) bounds for each probe, pinned so any change to the
// log-linear layout (kSubBits, octave arithmetic) shows up as a diff
// here, not as silently re-shaped latency histograms.
TEST(Histogram, GoldenBucketEdges) {
  struct Golden {
    std::uint64_t value;
    std::size_t bucket;
    std::uint64_t lower;
    double upper;
  };
  const Golden golden[] = {
      // Exact small buckets end at 7; the first octave starts at 8.
      {0, 0, 0, 1.0},
      {7, 7, 7, 8.0},
      {8, 8, 8, 9.0},
      {9, 9, 9, 10.0},
      {15, 15, 15, 16.0},
      // Octave [16, 32): 8 sub-buckets of width 2 — 16 and 17 coalesce.
      {16, 16, 16, 18.0},
      {17, 16, 16, 18.0},
      {31, 23, 30, 32.0},
      {32, 24, 32, 36.0},
      // Octave [128, 256): width-16 sub-buckets.
      {255, 47, 240, 256.0},
      {256, 48, 256, 288.0},
      {1023, 63, 960, 1024.0},
      {1024, 64, 1024, 1152.0},
      {std::uint64_t{1} << 20, 144, std::uint64_t{1} << 20,
       static_cast<double>((std::uint64_t{8} << 17) + (std::uint64_t{1} << 17))},
  };
  for (const Golden& g : golden) {
    EXPECT_EQ(Histogram::bucket_of(g.value), g.bucket) << g.value;
    EXPECT_EQ(Histogram::bucket_lower(g.bucket), g.lower) << g.value;
    EXPECT_DOUBLE_EQ(Histogram::bucket_upper(g.bucket), g.upper) << g.value;
  }
  // The top bucket holds the largest representable value and is open.
  const std::size_t top =
      Histogram::bucket_of(std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(top, Histogram::kNumBuckets - 1);
  EXPECT_EQ(top, 495u);
  EXPECT_EQ(Histogram::bucket_upper(top),
            std::numeric_limits<double>::infinity());
  // Relative sub-bucket width stays within the documented 12.5% bound.
  for (std::size_t b = Histogram::kSub; b + 1 < Histogram::kNumBuckets;
       ++b) {
    const double lower = static_cast<double>(Histogram::bucket_lower(b));
    EXPECT_LE(Histogram::bucket_upper(b) - lower, lower * 0.125 + 1e-9)
        << b;
  }
}

TEST(Histogram, ObserveClampsAndCounts) {
  MetricRegistry registry;
  Histogram& h = registry.histogram("maton_test_lat");
  h.observe(-5.0);  // clamps to 0
  h.observe(0.0);
  h.observe(7.0);
  h.observe(8.0);
  h.observe(1e30);  // clamps into the top bucket
  const Histogram::Totals t = h.totals();
  EXPECT_EQ(t.count, 5u);
  EXPECT_EQ(t.buckets[0], 2u);  // -5 and 0
  EXPECT_EQ(t.buckets[7], 1u);
  EXPECT_EQ(t.buckets[Histogram::bucket_of(
                std::numeric_limits<std::uint64_t>::max())],
            1u);
}

TEST(Registry, ScrapeMatchesShardedState) {
  MetricRegistry registry;
  util::ThreadPool pool(4);
  Counter& c = registry.counter("maton_test_total");
  Histogram& h = registry.histogram("maton_test_lat");
  constexpr std::size_t kTasks = 32;
  constexpr std::size_t kOps = 5000;
  pool.parallel_for(kTasks, pool.max_parallelism(),
                    [&](std::size_t /*task*/, std::size_t /*worker*/) {
                      for (std::size_t i = 0; i < kOps; ++i) {
                        c.add(3);
                        h.observe(static_cast<double>(i % 100));
                      }
                    });
  const Snapshot snap = registry.scrape();
  ASSERT_EQ(snap.metrics.size(), 2u);
  // The scrape aggregates exactly what the shards hold.
  for (const MetricSnapshot& m : snap.metrics) {
    if (m.kind == MetricKind::kCounter) {
      EXPECT_EQ(m.value, static_cast<double>(kTasks * kOps * 3));
    } else {
      EXPECT_EQ(m.count, kTasks * kOps);
      std::uint64_t bucket_sum = 0;
      for (const auto& [upper, count] : m.buckets) bucket_sum += count;
      EXPECT_EQ(bucket_sum, kTasks * kOps);
      // Σ of (i % 100) over kOps iterations, per task.
      const std::uint64_t per_task =
          (kOps / 100) * (99 * 100 / 2);
      EXPECT_DOUBLE_EQ(m.sum, static_cast<double>(kTasks * per_task));
    }
  }
}

TEST(Gauge, SetAddAndScrape) {
  MetricRegistry registry;
  Gauge& g = registry.gauge("maton_test_occupancy");
  g.set(5.0);
  g.add(2.5);
  EXPECT_DOUBLE_EQ(g.value(), 7.5);
  const Snapshot snap = registry.scrape();
  ASSERT_EQ(snap.metrics.size(), 1u);
  EXPECT_EQ(snap.metrics[0].kind, MetricKind::kGauge);
  EXPECT_DOUBLE_EQ(snap.metrics[0].value, 7.5);
}

#endif  // !MATON_OBS_OFF

}  // namespace
}  // namespace maton::obs

// Concurrency soak over the whole observability plane, aimed at TSan:
// writer threads hammer every metric kind across all registry shards and
// emit nested spans into their per-thread trace rings, while the main
// thread scrapes the registry and merges the rings concurrently. The
// assertions are the scrape-consistency contract: no torn snapshots and
// counters monotone across consecutive scrapes.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "obs/diff.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace maton::obs {
namespace {

TEST(ObsConcurrency, ScrapeWhileWritingStaysMonotoneAndUntorn) {
  constexpr std::size_t kWriters = 4;
  constexpr std::uint64_t kIterations = 20000;

  MetricRegistry& reg = MetricRegistry::global();
  // The registry is process-wide: an earlier repeat of this test (or any
  // other writer) leaves its counts in it, so totals are checked as
  // deltas from this scrape.
  const auto quiesced_totals = [&reg] {
    struct {
      double shared = 0.0;
      double writers = 0.0;
      std::uint64_t histogram = 0;
    } totals;
    for (const MetricSnapshot& m : reg.scrape().metrics) {
      if (m.name == "maton_concurrency_shared_total") totals.shared = m.value;
      if (m.name == "maton_concurrency_writer_total") totals.writers += m.value;
      if (m.name == "maton_concurrency_latency") totals.histogram = m.count;
    }
    return totals;
  };
  const auto before = quiesced_totals();
  std::atomic<std::size_t> done{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([&reg, &done, w] {
      // Per-writer labels exercise distinct metric objects; the shared
      // counter exercises cross-thread shard summation.
      Counter& mine = reg.counter("maton_concurrency_writer_total",
                                  {{"writer", std::to_string(w)}});
      Counter& shared = reg.counter("maton_concurrency_shared_total");
      Gauge& gauge = reg.gauge("maton_concurrency_gauge",
                               {{"writer", std::to_string(w)}});
      Histogram& histogram = reg.histogram("maton_concurrency_latency");
      for (std::uint64_t i = 0; i < kIterations; ++i) {
        const TraceSpan outer("writer_iter");
        mine.add();
        shared.add(2);
        gauge.set(static_cast<double>(i));
        histogram.observe(static_cast<double>(i % 4096));
        if (i % 64 == 0) {
          const TraceSpan inner("writer_flush");
          gauge.add(0.5);
        }
      }
      done.fetch_add(1, std::memory_order_release);
    });
  }

  ScrapeDiff diff;
  std::map<std::string, double> last;
  std::uint64_t scrapes = 0;
  double clock = 0.0;
  while (done.load(std::memory_order_acquire) < kWriters) {
    update_derived_gauges();
    const Snapshot snapshot = diff.augment(reg.scrape(), clock);
    clock += 1.0;
    ++scrapes;
    for (const MetricSnapshot& m : snapshot.metrics) {
      if (m.kind != MetricKind::kCounter) continue;
      std::string key = m.name;
      for (const auto& [k, v] : m.labels) key += "|" + k + "=" + v;
      const auto prev = last.find(key);
      if (prev != last.end()) {
        EXPECT_GE(m.value, prev->second) << key << " went backwards";
        prev->second = m.value;
      } else {
        last.emplace(std::move(key), m.value);
      }
    }
    // Merge the per-thread rings while the writers are still recording.
    const std::string trace = render_chrome_trace();
    EXPECT_NE(trace.find("\"traceEvents\":"), std::string::npos);
  }
  for (std::thread& t : writers) t.join();
  EXPECT_GE(scrapes, 1u);

  // Quiesced totals add up exactly: nothing was lost to tearing.
  const auto after = quiesced_totals();
  if constexpr (kEnabled) {
    EXPECT_EQ(after.shared - before.shared,
              static_cast<double>(2 * kWriters * kIterations));
    EXPECT_EQ(after.writers - before.writers,
              static_cast<double>(kWriters * kIterations));
    EXPECT_EQ(after.histogram - before.histogram, kWriters * kIterations);
    // Every writer thread's spans are visible in one merged export.
    const TraceRing::Contents merged = TracerRegistry::global().merged();
    EXPECT_GT(merged.total_recorded, 0u);
  }
}

TEST(ObsConcurrency, FirstObservationsRacingOntoAFreshHistogramAllCount) {
  // A histogram allocates each shard on the first observation landing on
  // it. Twice as many threads as shards, released together, race in
  // pairs to install the same shards; no sample may be lost to the race,
  // and totals may be read concurrently.
  constexpr std::size_t kThreads = 2 * detail::kShards;
  constexpr std::uint64_t kObservations = 1000;
  Histogram histogram;
  std::atomic<bool> go{false};
  std::atomic<std::size_t> finished{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&histogram, &go, &finished] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (std::uint64_t i = 0; i < kObservations; ++i) {
        histogram.observe(2.0);
      }
      finished.fetch_add(1, std::memory_order_release);
    });
  }
  go.store(true, std::memory_order_release);
  while (finished.load(std::memory_order_acquire) < kThreads) {
    EXPECT_LE(histogram.totals().count, kThreads * kObservations);
  }
  for (std::thread& t : threads) t.join();
  const Histogram::Totals totals = histogram.totals();
  if constexpr (kEnabled) {
    EXPECT_EQ(totals.count, kThreads * kObservations);
    EXPECT_EQ(totals.buckets[Histogram::bucket_of(2)], totals.count);
    EXPECT_DOUBLE_EQ(totals.sum, 2.0 * kThreads * kObservations);
  } else {
    EXPECT_EQ(totals.count, 0u);
  }
}

}  // namespace
}  // namespace maton::obs

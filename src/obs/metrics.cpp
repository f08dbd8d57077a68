#include "obs/metrics.hpp"

#include <algorithm>
#include <map>
#include <mutex>
#include <new>

#include "util/contract.hpp"

namespace maton::obs {

namespace detail {

std::size_t shard_id() noexcept {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t id =
      next.fetch_add(1, std::memory_order_relaxed) & (kShards - 1);
  return id;
}

}  // namespace detail

Histogram::~Histogram() {
  for (auto& shard : shards_) delete shard.load(std::memory_order_acquire);
}

Histogram::Shard* Histogram::add_shard(std::size_t id) noexcept {
  Shard* fresh = new (std::nothrow) Shard();
  if (fresh == nullptr) return nullptr;
  Shard* installed = nullptr;
  if (shards_[id].compare_exchange_strong(installed, fresh,
                                          std::memory_order_acq_rel,
                                          std::memory_order_acquire)) {
    return fresh;
  }
  delete fresh;  // another thread on this shard installed one first
  return installed;
}

Histogram::Totals Histogram::totals() const {
  Totals out;
  out.buckets.assign(kNumBuckets, 0);
  for (const auto& shard : shards_) {
    const Shard* s = shard.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (std::size_t b = 0; b < kNumBuckets; ++b) {
      out.buckets[b] += s->buckets[b].load(std::memory_order_relaxed);
    }
    out.sum += s->sum.load(std::memory_order_relaxed);
  }
  for (const std::uint64_t c : out.buckets) out.count += c;
  return out;
}

void Histogram::reset() noexcept {
  for (auto& shard : shards_) {
    Shard* s = shard.load(std::memory_order_acquire);
    if (s == nullptr) continue;
    for (auto& b : s->buckets) b.store(0, std::memory_order_relaxed);
    s->sum.store(0.0, std::memory_order_relaxed);
  }
}

std::string_view to_string(MetricKind kind) noexcept {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

namespace {

/// Map key: metric name plus the normalized (sorted) label set. Using
/// the structured pair keeps ordering deterministic without inventing a
/// serialization that could collide on label values containing
/// separators.
using MetricKey = std::pair<std::string, Labels>;

}  // namespace

struct MetricRegistry::Entry {
  MetricKind kind;
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<Histogram> histogram;
};

struct MetricRegistry::State {
  mutable std::mutex mutex;
  // std::map for stable iteration order and node stability: Entry
  // addresses (and therefore the metric objects behind the unique_ptrs)
  // never move after insertion.
  std::map<MetricKey, Entry> metrics;
  std::atomic<std::uint64_t> lookups{0};
};

MetricRegistry::MetricRegistry() : state_(std::make_unique<State>()) {}

MetricRegistry::~MetricRegistry() = default;

MetricRegistry& MetricRegistry::global() {
  // Leaked on purpose: instrumented code may record through cached
  // handles during static destruction; the registry must outlive them.
  static MetricRegistry* instance = new MetricRegistry();
  return *instance;
}

MetricRegistry::Entry& MetricRegistry::find_or_create(std::string_view name,
                                                      Labels labels,
                                                      MetricKind kind) {
  expects(!name.empty(), "metric name must be non-empty");
  state_->lookups.fetch_add(1, std::memory_order_relaxed);
  std::sort(labels.begin(), labels.end());
  std::lock_guard<std::mutex> lock(state_->mutex);
  MetricKey key{std::string(name), std::move(labels)};
  auto [it, inserted] = state_->metrics.try_emplace(std::move(key));
  Entry& entry = it->second;
  if (inserted) {
    entry.kind = kind;
    switch (kind) {
      case MetricKind::kCounter:
        entry.counter = std::make_unique<Counter>();
        break;
      case MetricKind::kGauge:
        entry.gauge = std::make_unique<Gauge>();
        break;
      case MetricKind::kHistogram:
        entry.histogram = std::make_unique<Histogram>();
        break;
    }
  } else {
    expects(entry.kind == kind,
            "metric re-registered with a different kind");
  }
  return entry;
}

Counter& MetricRegistry::counter(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kCounter)
              .counter;
}

Gauge& MetricRegistry::gauge(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kGauge).gauge;
}

Histogram& MetricRegistry::histogram(std::string_view name, Labels labels) {
  return *find_or_create(name, std::move(labels), MetricKind::kHistogram)
              .histogram;
}

std::uint64_t MetricRegistry::lookups() const noexcept {
  return state_->lookups.load(std::memory_order_relaxed);
}

Snapshot MetricRegistry::scrape() const {
  Snapshot snap;
  std::lock_guard<std::mutex> lock(state_->mutex);
  snap.metrics.reserve(state_->metrics.size());
  for (const auto& [key, entry] : state_->metrics) {
    MetricSnapshot m;
    m.name = key.first;
    m.labels = key.second;
    m.kind = entry.kind;
    switch (entry.kind) {
      case MetricKind::kCounter:
        m.value = static_cast<double>(entry.counter->total());
        m.count = entry.counter->total();
        break;
      case MetricKind::kGauge:
        m.value = entry.gauge->value();
        break;
      case MetricKind::kHistogram: {
        const Histogram::Totals totals = entry.histogram->totals();
        for (std::size_t b = 0; b < Histogram::kNumBuckets; ++b) {
          if (totals.buckets[b] != 0) {
            m.buckets.emplace_back(Histogram::bucket_upper(b),
                                   totals.buckets[b]);
          }
        }
        m.sum = totals.sum;
        m.count = totals.count;
        break;
      }
    }
    snap.metrics.push_back(std::move(m));
  }
  return snap;
}

void MetricRegistry::reset_values() {
  std::lock_guard<std::mutex> lock(state_->mutex);
  for (auto& [key, entry] : state_->metrics) {
    switch (entry.kind) {
      case MetricKind::kCounter:
        entry.counter->reset();
        break;
      case MetricKind::kGauge:
        entry.gauge->reset();
        break;
      case MetricKind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

}  // namespace maton::obs

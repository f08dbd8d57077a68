#include "obs/trace.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <deque>
#include <unordered_map>

namespace maton::obs {

namespace {

#if !defined(MATON_OBS_OFF)
thread_local std::uint32_t t_depth = 0;

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}
#endif

/// Every span name the process has recorded, each stored once.
class NameTable {
 public:
  const char* intern(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = index_.find(name); it != index_.end()) {
      return it->second;
    }
    // deque: growing at the back never moves a stored name.
    const std::string& stored = names_.emplace_back(name);
    index_.emplace(stored, stored.c_str());
    return stored.c_str();
  }

 private:
  std::mutex mutex_;
  std::deque<std::string> names_;
  std::unordered_map<std::string_view, const char*> index_;
};

NameTable& name_table() {
  // Leaked like the registry: spans may be recorded from destructors of
  // static-lifetime objects.
  static NameTable* table = new NameTable();
  return *table;
}

/// One slot of the per-thread name cache. Trivially destructible, so a
/// span recorded while the thread's other thread_locals are being torn
/// down still finds it intact.
struct CachedName {
  std::uint64_t hash = 0;
  const char* name = nullptr;
  std::size_t size = 0;
};
thread_local std::array<CachedName, 32> t_names{};

void append_json_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

/// Deterministic merge order: nondecreasing start time; ties broken by
/// thread, then nesting depth (a parent that shares its child's coarse
/// start timestamp renders first), then name.
bool event_before(const TraceEvent& a, const TraceEvent& b) noexcept {
  if (a.start_ns != b.start_ns) return a.start_ns < b.start_ns;
  if (a.tid != b.tid) return a.tid < b.tid;
  if (a.depth != b.depth) return a.depth < b.depth;
  return a.name_view() < b.name_view();
}

}  // namespace

SpanName intern_span_name(std::string_view name) {
  name = name.substr(0, std::min(name.size(), kMaxSpanName));
  std::uint64_t hash = 1469598103934665603ULL;  // FNV-1a
  for (const char c : name) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  CachedName& slot = t_names[hash % t_names.size()];
  if (slot.name != nullptr && slot.hash == hash && slot.size == name.size() &&
      std::memcmp(slot.name, name.data(), name.size()) == 0) {
    return {slot.name};
  }
  slot = {hash, name_table().intern(name), name.size()};
  return {slot.name};
}

void TraceRing::record(SpanName name, std::uint32_t tid, std::uint32_t depth,
                       std::uint64_t start_ns, std::uint64_t dur_ns) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (ring_.size() < kCapacity) {
    // One allocation for the ring's lifetime: doubling up to kCapacity
    // would free a trail of ever larger blocks on the way.
    if (ring_.capacity() < kCapacity) ring_.reserve(kCapacity);
    ring_.emplace_back();
  }
  TraceEvent& e = ring_[next_ % kCapacity];
  e.name = name.str;
  e.tid = tid;
  e.depth = depth;
  e.start_ns = start_ns;
  e.dur_ns = dur_ns;
  ++next_;
  ++total_;
}

TraceRing::Contents TraceRing::contents() const {
  std::lock_guard<std::mutex> lock(mutex_);
  Contents out;
  out.total_recorded = total_;
  if (ring_.size() < kCapacity) {
    out.events = ring_;
  } else {
    // The slot at `next % kCapacity` is the oldest surviving span.
    out.events.reserve(kCapacity);
    const std::size_t head = next_ % kCapacity;
    out.events.insert(out.events.end(), ring_.begin() + head, ring_.end());
    out.events.insert(out.events.end(), ring_.begin(), ring_.begin() + head);
  }
  return out;
}

TraceRing::Stats TraceRing::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return {ring_.size(), total_};
}

void TraceRing::clear() {
  std::lock_guard<std::mutex> lock(mutex_);
  ring_.clear();
  next_ = 0;
  total_ = 0;
}

TracerRegistry& TracerRegistry::global() {
  // Leaked for the same reason as MetricRegistry::global(): spans may be
  // recorded from destructors of static-lifetime objects.
  static TracerRegistry* instance = new TracerRegistry();
  return *instance;
}

std::uint32_t TracerRegistry::this_thread_tid() noexcept {
  // Sequential thread ids (steady, small) instead of opaque
  // std::thread::id values, so the Chrome trace shows "thread 0/1/2".
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t tid =
      next.fetch_add(1, std::memory_order_relaxed);
  return tid;
}

TraceRing& TracerRegistry::this_thread_ring() {
  // A thread leases a ring on its first span and hands it back when it
  // exits; the next thread to register takes it over with its events in
  // place, so the registry holds as many rings as threads were ever alive
  // at once. The cache is sound because the only TracerRegistry is the
  // leaked global(): a ring outlives every thread that used it.
  thread_local TraceRing* ring = nullptr;
  struct Lease {
    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      TracerRegistry& registry = global();
      const std::lock_guard<std::mutex> lock(registry.mutex_);
      registry.free_.push_back(ring);
      ring = nullptr;
    }
  };
  if (ring == nullptr) {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      if (free_.empty()) {
        rings_.push_back(std::make_unique<TraceRing>());
        ring = rings_.back().get();
        // Room for every ring to come back, so the lease's push_back
        // never allocates (or throws) in a destructor.
        free_.reserve(rings_.size());
      } else {
        ring = free_.back();
        free_.pop_back();
      }
    }
    // Constructed once per thread. A span recorded after the lease has
    // ended (in a later thread_local destructor) takes a ring for good.
    thread_local const Lease lease;
  }
  return *ring;
}

TraceRing::Contents TracerRegistry::merged() const {
  // Snapshot the ring list first (registration only appends; the
  // unique_ptrs are stable), then copy each ring out under its own lock.
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  TraceRing::Contents out;
  for (const TraceRing* ring : rings) {
    TraceRing::Contents c = ring->contents();
    out.total_recorded += c.total_recorded;
    out.events.insert(out.events.end(), c.events.begin(), c.events.end());
  }
  std::sort(out.events.begin(), out.events.end(), event_before);
  return out;
}

TracerRegistry::Occupancy TracerRegistry::occupancy() const {
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  Occupancy out;
  out.rings = rings.size();
  out.capacity = rings.size() * TraceRing::kCapacity;
  for (const TraceRing* ring : rings) {
    const TraceRing::Stats s = ring->stats();
    out.events += s.occupied;
    out.total_recorded += s.total_recorded;
  }
  return out;
}

void TracerRegistry::clear() {
  std::vector<TraceRing*> rings;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    rings.reserve(rings_.size());
    for (const auto& r : rings_) rings.push_back(r.get());
  }
  for (TraceRing* ring : rings) ring->clear();
}

TraceSpan::TraceSpan(std::string_view name) noexcept {
#if !defined(MATON_OBS_OFF)
  name_ = intern_span_name(name);
  ++t_depth;
  start_ = std::chrono::steady_clock::now();
#else
  (void)name;
#endif
}

TraceSpan::~TraceSpan() {
#if !defined(MATON_OBS_OFF)
  const std::uint64_t end = now_ns();
  const std::uint64_t start = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          start_.time_since_epoch())
          .count());
  --t_depth;
  TracerRegistry::global().this_thread_ring().record(
      name_, TracerRegistry::this_thread_tid(), t_depth, start,
      end > start ? end - start : 0);
#endif
}

std::string render_chrome_trace(const TraceRing::Contents& c) {
  std::string out;
  out.reserve(128 + c.events.size() * 120);
  out += "{\"traceEvents\":[";
  bool first = true;
  for (const TraceEvent& e : c.events) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_json_escaped(out, e.name_view());
    out += "\",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(e.tid);
    // Chrome expects microsecond floats; keep ns precision via 3 dp.
    char buf[64];
    std::snprintf(buf, sizeof(buf), ",\"ts\":%llu.%03llu,\"dur\":%llu.%03llu",
                  static_cast<unsigned long long>(e.start_ns / 1000),
                  static_cast<unsigned long long>(e.start_ns % 1000),
                  static_cast<unsigned long long>(e.dur_ns / 1000),
                  static_cast<unsigned long long>(e.dur_ns % 1000));
    out += buf;
    out += ",\"args\":{\"depth\":";
    out += std::to_string(e.depth);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ns\",\"otherData\":{\"total_recorded\":";
  out += std::to_string(c.total_recorded);
  out += "}}";
  return out;
}

std::string render_chrome_trace() {
  return render_chrome_trace(TracerRegistry::global().merged());
}

}  // namespace maton::obs

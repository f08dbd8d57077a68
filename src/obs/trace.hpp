// Phase tracing: TraceSpan is an RAII scope timer that records one
// completed span (name, thread, start, duration, nesting depth) into the
// calling thread's TraceRing on destruction. Spans are meant for
// phase-frequency events — a churn intent, a TANE lattice level, a batch
// round, a replay queue pass — not per-packet work.
//
// Rings are strictly per-thread: each thread lazily creates one ring and
// registers it with the process-wide TracerRegistry on its first span.
// The record path therefore only ever takes its own ring's mutex, which
// is uncontended unless a scrape is copying that specific ring out — the
// multi-queue replay workers never serialize against each other the way
// they did on the old single shared ring. Rings outlive their threads
// (the registry owns them), so spans from joined workers still export.
//
// Each ring keeps its most recent kCapacity spans; older ones are
// overwritten. TracerRegistry::merged() snapshots every ring and merges
// them into one deterministically ordered event list — sorted by
// (start_ns, tid, depth) — so the export is in nondecreasing timestamp
// order even when individual rings have wrapped or hold out-of-start-
// order events (nested spans complete innermost-first).
// render_chrome_trace() exports the merge as Chrome trace_event JSON
// ("X" complete events, microsecond timestamps) that loads directly in
// chrome://tracing or Perfetto.
//
// With MATON_OBS_OFF, TraceSpan is an empty object: no clock reads, no
// recording; the exporter renders an empty event list.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace maton::obs {

#if defined(MATON_OBS_OFF)
inline constexpr bool kTraceEnabled = false;
#else
inline constexpr bool kTraceEnabled = true;
#endif

/// A span name interned for the life of the process: NUL-terminated, at
/// most kMaxSpanName characters, never freed.
struct SpanName {
  const char* str = "";
};

/// Longest span name kept; longer names are truncated.
inline constexpr std::size_t kMaxSpanName = 47;

/// The interned copy of `name` (truncated to kMaxSpanName). Each distinct
/// name is stored once per process, so a ring slot holds a pointer
/// instead of a copy of the name. A per-thread cache answers repeat
/// names without the shared table's lock.
[[nodiscard]] SpanName intern_span_name(std::string_view name);

/// One completed span, as stored in a ring (32 bytes).
struct TraceEvent {
  /// Interned span name (see intern_span_name).
  const char* name = "";
  std::uint32_t tid = 0;
  std::uint32_t depth = 0;
  std::uint64_t start_ns = 0;
  std::uint64_t dur_ns = 0;

  [[nodiscard]] std::string_view name_view() const noexcept { return name; }
};

/// Fixed-capacity span ring with a single producer (the owning thread).
/// The mutex exists only so a concurrent scrape can copy the ring out
/// without tearing events; the producer never contends with other
/// producers.
class TraceRing {
 public:
  static constexpr std::size_t kCapacity = std::size_t{1} << 12;

  /// Appends a completed span, overwriting the oldest if full.
  void record(SpanName name, std::uint32_t tid, std::uint32_t depth,
              std::uint64_t start_ns, std::uint64_t dur_ns);
  /// record() under intern_span_name(name).
  void record(std::string_view name, std::uint32_t tid, std::uint32_t depth,
              std::uint64_t start_ns, std::uint64_t dur_ns) {
    record(intern_span_name(name), tid, depth, start_ns, dur_ns);
  }

  /// Spans in recording order (oldest surviving first). Total number of
  /// spans ever recorded is reported separately so callers can tell how
  /// many wrapped out.
  struct Contents {
    std::vector<TraceEvent> events;
    std::uint64_t total_recorded = 0;
  };
  [[nodiscard]] Contents contents() const;

  /// Spans currently held (≤ kCapacity) and ever recorded.
  struct Stats {
    std::size_t occupied = 0;
    std::uint64_t total_recorded = 0;
  };
  [[nodiscard]] Stats stats() const;

  void clear();

 private:
  mutable std::mutex mutex_;
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;     // write cursor
  std::uint64_t total_ = 0;  // spans ever recorded
};

/// Process-wide registry of per-thread rings: hands each thread its own
/// ring on first use, takes it back when the thread exits, and merges all
/// rings into one deterministically ordered export.
class TracerRegistry {
 public:
  [[nodiscard]] static TracerRegistry& global();

  /// The calling thread's ring, taken on first use from the rings of
  /// exited threads (their events stay in it) or created and registered.
  /// Rings are owned by the registry and never deallocated, so cached
  /// references stay valid past thread exit; the registry holds at most
  /// as many rings as threads have been alive at once.
  [[nodiscard]] TraceRing& this_thread_ring();

  /// Stable sequential id of the calling thread (0, 1, 2, ... in first-
  /// span order), used as the Chrome trace tid.
  [[nodiscard]] static std::uint32_t this_thread_tid() noexcept;

  /// Records into the calling thread's ring (TraceSpan's path; also the
  /// tests' hook for synthesizing spans with explicit timestamps).
  void record(std::string_view name, std::uint32_t tid, std::uint32_t depth,
              std::uint64_t start_ns, std::uint64_t dur_ns) {
    this_thread_ring().record(name, tid, depth, start_ns, dur_ns);
  }

  /// Snapshot of every ring merged into one event list, sorted by
  /// (start_ns, tid, depth, name): nondecreasing timestamps regardless
  /// of per-ring wrap state, and deterministic for a given set of
  /// events. total_recorded sums over rings.
  [[nodiscard]] TraceRing::Contents merged() const;

  /// Ring-occupancy roll-up for the derived gauges.
  struct Occupancy {
    std::size_t rings = 0;
    std::size_t events = 0;    ///< spans currently held across rings
    std::size_t capacity = 0;  ///< rings × kCapacity
    std::uint64_t total_recorded = 0;
  };
  [[nodiscard]] Occupancy occupancy() const;

  /// Clears every registered ring (rings stay registered).
  void clear();

 private:
  TracerRegistry() = default;
  mutable std::mutex mutex_;  // guards rings_ and free_
  std::vector<std::unique_ptr<TraceRing>> rings_;
  /// Rings of exited threads, handed to the next threads to register.
  std::vector<TraceRing*> free_;
};

/// RAII phase timer. Construct at scope entry; the span is recorded
/// when the object is destroyed. Nesting depth is tracked per thread.
class TraceSpan {
 public:
  explicit TraceSpan(std::string_view name) noexcept;
  ~TraceSpan();
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
#if !defined(MATON_OBS_OFF)
  SpanName name_;
  std::chrono::steady_clock::time_point start_;
#endif
};

/// Renders the merged registry (or `contents` if given) as a Chrome
/// trace_event JSON document: {"traceEvents": [{"ph":"X", ...}, ...]}.
[[nodiscard]] std::string render_chrome_trace();
[[nodiscard]] std::string render_chrome_trace(const TraceRing::Contents& c);

}  // namespace maton::obs

// ExpoServer: a minimal embedded HTTP/1.1 scrape server so a long-
// running process (maton-soak, matonc on a big input, a future
// controller service) can be watched live instead of post-mortem.
//
// Endpoints (GET/HEAD, Connection: close):
//   /metrics        Prometheus text exposition of the global registry,
//                   augmented by a ScrapeDiff (per-interval *_per_sec
//                   rates, *_hwm high-watermarks, fallback ratio) and
//                   the derived process gauges (RSS, ring occupancy,
//                   maton_build_info)
//   /metrics.json   the same augmented snapshot as JSON
//   /trace          Chrome trace_event JSON of the merged per-thread
//                   span rings (loads in chrome://tracing / Perfetto)
//   /healthz        200 "ok\n"
//
// Design: one blocking accept loop on a background std::thread, one
// connection served at a time, no keep-alive, no external dependencies —
// a scrape every few seconds is the intended load, not a web workload.
// Requests are served sequentially, so consecutive scrapes observe
// nondecreasing counters and the ScrapeDiff state needs no locking.
//
// Start via start("host:port") — port 0 binds an ephemeral port,
// re-readable through port() — or start_from_env(), which reads
// MATON_METRICS_ADDR and treats an unset variable as "don't serve".
// stop() (also run by the destructor) closes the listening socket, shuts
// down the connection being served (a slow or silent client cannot hold
// it up) and joins the thread.
//
// Under MATON_OBS_OFF the server is compiled out: start() returns
// kUnimplemented and no socket or thread is ever created, so binaries
// built without observability are bit-identical in behavior modulo that
// status.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "util/status.hpp"

namespace maton::obs {

class ExpoServer {
 public:
  ExpoServer();
  ~ExpoServer();
  ExpoServer(const ExpoServer&) = delete;
  ExpoServer& operator=(const ExpoServer&) = delete;

  /// Binds `addr` ("host:port"; ":port" and bare "port" bind 127.0.0.1,
  /// port 0 picks an ephemeral port) and starts the accept loop.
  /// Errors: kUnimplemented under MATON_OBS_OFF, kFailedPrecondition if
  /// already running, kInvalidArgument / kInternal on bad addresses and
  /// socket failures.
  [[nodiscard]] Status start(const std::string& addr);

  /// Stops the accept loop and joins the thread; idempotent.
  void stop();

  [[nodiscard]] bool running() const noexcept;

  /// Actual bound port (resolves port 0), 0 when not running.
  [[nodiscard]] std::uint16_t port() const noexcept;

  /// "host:port" with the actual bound port, "" when not running.
  [[nodiscard]] std::string address() const;

 private:
  struct State;
  std::unique_ptr<State> state_;
};

/// Starts `server` on MATON_METRICS_ADDR when that variable is set.
/// Unset is not an error (returns ok, server not running); set-but-
/// unusable (bad address, port in use, MATON_OBS_OFF build) returns the
/// start() error so the caller can surface it.
[[nodiscard]] Status start_from_env(ExpoServer& server);

}  // namespace maton::obs

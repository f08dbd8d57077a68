// maton-soak — a watchable churn + replay soak harness.
//
// Runs two loads concurrently for a configured duration while the
// embedded scrape server is live, then gates on invariants at exit:
//
//   churn thread   randomized mixed intents (port moves, backend swaps,
//                  VIP re-addressing incl. deliberate collisions) through
//                  the incremental compiler into a live switch, with a
//                  periodic FD re-mine and a periodic *drift check*: the
//                  incrementally patched program is compared bit-for-bit
//                  against a fresh full rebuild from the same service
//                  model.
//   replay thread  multi-queue batched traffic replay (flow-hash
//                  sharding) on its own thread pool, over and over.
//
// While both run, every layer's metrics and per-thread trace rings are
// live on http://<--metrics-addr>/metrics, /metrics.json, /trace and
// /healthz (MATON_METRICS_ADDR works too). At exit the process writes
// MATON_METRICS_OUT / MATON_TRACE_OUT files if set, prints a JSON
// summary to stdout, and fails (exit 1) on: any drift, any failed
// intent, peak RSS above --rss-limit-mb, or (with --verify) any compile
// not proven equivalent. An intent the representation cannot express
// (compile_intent's kFailedPrecondition refusal, e.g. rematch with two
// services on one VIP) leaves the binding unchanged; it is tallied as a
// rejection, not a failure.
//
//   maton-soak [--duration=SEC] [--services=N] [--backends=M]
//              [--repr=universal|goto|metadata|rematch] [--queues=Q]
//              [--batch=B] [--packets=P] [--seed=S]
//              [--metrics-addr=HOST:PORT] [--rss-limit-mb=MB]
//              [--drift-every=K] [--mine-every=K] [--verify]
//              [--max-fallback-ratio=R]
//
// Defaults: 60 s soak of gwlb 64x8 (goto), 2 replay queues, drift check
// every 64 intents, FD re-mine every 16, no RSS gate.
//
// --verify turns on per-intent symbolic verification: after every
// applied intent the binding proves the live program equivalent to its
// reference with the decision-diagram engine (VerifyMode in
// controlplane/compiler.hpp); any refutation, and any compile left
// unproven (an unknown verdict), fails the soak. The binding keeps that
// reference current table by table, so --verify also makes every drift
// check a cold proof: the live program against the drift check's fresh
// full rebuild, with a prover that shares nothing with the binding's.
// Anything but an equivalence verdict fails the soak.
// --max-fallback-ratio gates fallbacks/(hits+fallbacks) at exit — the
// symbolic slice-isolation proofs are expected to keep deliberate VIP
// collisions on the delta path, so the ratio stays near zero.
#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "controlplane/churn.hpp"
#include "controlplane/controller.hpp"
#include "obs/diff.hpp"
#include "obs/expose.hpp"
#include "obs/metrics.hpp"
#include "obs/server.hpp"
#include "obs/trace.hpp"
#include "util/thread_pool.hpp"
#include "workloads/replay.hpp"
#include "workloads/traffic.hpp"

namespace {

using namespace maton;

struct SoakOptions {
  double duration_s = 60.0;
  std::size_t services = 64;
  std::size_t backends = 8;
  cp::Representation repr = cp::Representation::kGoto;
  std::size_t queues = 2;
  std::size_t batch = 256;
  std::size_t packets = 4096;
  std::uint64_t seed = 1;
  std::string metrics_addr;  // empty = MATON_METRICS_ADDR or none
  double rss_limit_mb = 0.0;  // 0 = no gate
  std::size_t drift_every = 64;
  std::size_t mine_every = 16;
  bool verify = false;
  double max_fallback_ratio = -1.0;  // < 0 = no gate
};

int usage(std::ostream& os) {
  os << "usage: maton-soak [--duration=SEC] [--services=N] [--backends=M]\n"
        "  [--repr=universal|goto|metadata|rematch] [--queues=Q]\n"
        "  [--batch=B] [--packets=P] [--seed=S]\n"
        "  [--metrics-addr=HOST:PORT] [--rss-limit-mb=MB]\n"
        "  [--drift-every=K] [--mine-every=K] [--verify]\n"
        "  [--max-fallback-ratio=R]\n";
  return 2;
}

bool parse_args(const std::vector<std::string>& args, SoakOptions& opts,
                std::ostream& err) {
  for (const std::string& arg : args) {
    const auto eq = arg.find('=');
    const std::string key = arg.substr(0, eq);
    const std::string val =
        eq == std::string::npos ? "" : arg.substr(eq + 1);
    try {
      if (key == "--duration") {
        opts.duration_s = std::stod(val);
      } else if (key == "--services") {
        opts.services = std::stoul(val);
      } else if (key == "--backends") {
        opts.backends = std::stoul(val);
      } else if (key == "--repr") {
        const std::optional<cp::Representation> repr =
            cp::parse_representation(val);
        if (!repr.has_value()) {
          err << "unknown representation '" << val << "'\n";
          return false;
        }
        opts.repr = *repr;
      } else if (key == "--queues") {
        opts.queues = std::stoul(val);
      } else if (key == "--batch") {
        opts.batch = std::stoul(val);
      } else if (key == "--packets") {
        opts.packets = std::stoul(val);
      } else if (key == "--seed") {
        opts.seed = std::stoull(val);
      } else if (key == "--metrics-addr") {
        opts.metrics_addr = val;
      } else if (key == "--rss-limit-mb") {
        opts.rss_limit_mb = std::stod(val);
      } else if (key == "--drift-every") {
        opts.drift_every = std::stoul(val);
      } else if (key == "--mine-every") {
        opts.mine_every = std::stoul(val);
      } else if (key == "--verify") {
        opts.verify = true;
      } else if (key == "--max-fallback-ratio") {
        opts.max_fallback_ratio = std::stod(val);
      } else {
        err << "unknown option '" << arg << "'\n";
        return false;
      }
    } catch (const std::exception&) {
      err << "bad value in '" << arg << "'\n";
      return false;
    }
    if (val.empty() && key != "--metrics-addr" && key != "--verify") {
      err << "option '" << key << "' needs a value\n";
      return false;
    }
  }
  return opts.duration_s > 0.0 && opts.services > 0 && opts.queues > 0 &&
         opts.batch > 0 && opts.packets > 0;
}

/// Shared tallies the gates read after the threads join.
struct SoakState {
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> intents{0};
  std::atomic<std::uint64_t> intent_failures{0};
  std::atomic<std::uint64_t> intent_rejections{0};
  std::atomic<std::uint64_t> drift_checks{0};
  std::atomic<std::uint64_t> drift{0};
  std::atomic<std::uint64_t> cold_proofs{0};
  std::atomic<std::uint64_t> cold_proof_failures{0};
  std::atomic<std::uint64_t> replay_iterations{0};
  std::atomic<std::uint64_t> replay_packets{0};
};

/// One drift check: the live program against a fresh full rebuild of
/// the same service model, bit for bit and, with --verify, by a cold
/// symbolic proof. Tallies both; returns whether the program drifted.
bool check_drift(const SoakOptions& opts, const cp::GwlbBinding& binding,
                 SoakState& state) {
  const cp::GwlbBinding rebuilt(binding.gwlb(), opts.repr,
                                cp::CompileMode::kFullRebuild);
  state.drift_checks.fetch_add(1, std::memory_order_relaxed);
  const bool drifted = !(binding.program() == rebuilt.program());
  if (drifted) state.drift.fetch_add(1, std::memory_order_relaxed);
  if (opts.verify) {
    state.cold_proofs.fetch_add(1, std::memory_order_relaxed);
    if (!analysis::symbolic::check_programs(binding.program(),
                                            rebuilt.program())
             .equivalent()) {
      state.cold_proof_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }
  return drifted;
}

void churn_loop(const SoakOptions& opts, cp::Controller& controller,
                cp::GwlbBinding& binding, SoakState& state) {
  obs::MetricRegistry& reg = obs::MetricRegistry::global();
  obs::Counter& intents = reg.counter("maton_soak_intents_total");
  obs::Counter& failures = reg.counter("maton_soak_intent_failures_total");
  obs::Counter& rejections =
      reg.counter("maton_soak_intent_rejections_total");
  obs::Counter& drift_checks = reg.counter("maton_soak_drift_checks_total");
  obs::Counter& drift = reg.counter("maton_soak_drift_total");

  Rng rng(opts.seed ^ 0x5eedc0ffeeULL);
  std::uint64_t applied = 0;
  while (!state.stop.load(std::memory_order_relaxed)) {
    const obs::TraceSpan span("soak_intent");
    const cp::Intent intent = cp::draw_mixed_intent(rng, binding.gwlb());
    const auto cost = controller.apply(intent);
    if (!cost.is_ok()) {
      const bool rejected =
          cost.status().code() == StatusCode::kFailedPrecondition;
      (rejected ? rejections : failures).add();
      (rejected ? state.intent_rejections : state.intent_failures)
          .fetch_add(1, std::memory_order_relaxed);
    }
    intents.add();
    state.intents.fetch_add(1, std::memory_order_relaxed);
    ++applied;

    if (opts.mine_every > 0 && applied % opts.mine_every == 0) {
      (void)binding.mined_fds();
    }
    if (opts.drift_every > 0 && applied % opts.drift_every == 0) {
      const obs::TraceSpan drift_span("soak_drift_check");
      drift_checks.add();
      if (check_drift(opts, binding, state)) drift.add();
    }
  }
}

void replay_loop(const SoakOptions& opts, const dp::Program& program,
                 std::span<const dp::FlowKey> keys, SoakState& state) {
  obs::Counter& iterations = obs::MetricRegistry::global().counter(
      "maton_soak_replay_iterations_total");
  // Dedicated pool: the shared pool belongs to the churn thread's FD
  // re-mines, and a pool busy with one parallel_for runs any other
  // inline, which would serialize the queues.
  util::ThreadPool pool(opts.queues > 0 ? opts.queues - 1 : 0);
  while (!state.stop.load(std::memory_order_relaxed)) {
    const workloads::ReplayStats stats = workloads::replay_threaded(
        dp::make_eswitch_model, program, keys, /*rounds=*/1, opts.queues,
        opts.batch, workloads::ShardMode::kFlowHash, &pool);
    iterations.add();
    state.replay_iterations.fetch_add(1, std::memory_order_relaxed);
    state.replay_packets.fetch_add(stats.packets,
                                   std::memory_order_relaxed);
  }
}

int run(const SoakOptions& opts) {
  const workloads::Gwlb gwlb = workloads::make_gwlb(
      {.num_services = opts.services,
       .num_backends = opts.backends,
       .seed = opts.seed});
  auto binding = std::make_unique<cp::GwlbBinding>(
      gwlb, opts.repr, cp::CompileMode::kIncremental,
      cp::AnalyzeMode::kOff,
      opts.verify ? cp::VerifyMode::kSymbolic : cp::VerifyMode::kOff);
  cp::GwlbBinding& live_binding = *binding;
  auto sw = dp::make_eswitch_model();
  cp::Controller controller(std::move(binding), *sw);

  // The replay plane serves the pre-churn program on its own switch
  // instances: data-plane load and control-plane churn interact only
  // through the observability plane, which is exactly what this harness
  // soaks (concurrent scrapes, cross-thread trace merges, shared
  // metric shards).
  const dp::Program replay_program = live_binding.program();
  const auto keys = workloads::make_gwlb_keys(
      gwlb, {.num_packets = opts.packets, .hit_fraction = 1.0});

  obs::ExpoServer server;
  if (!opts.metrics_addr.empty()) {
    const Status started = server.start(opts.metrics_addr);
    if (!started.is_ok()) {
      std::cerr << "maton-soak: metrics server: " << started.to_string()
                << "\n";
      if (started.code() != StatusCode::kUnimplemented) return 1;
    }
  } else {
    const Status started = obs::start_from_env(server);
    if (!started.is_ok()) {
      std::cerr << "maton-soak: metrics server: " << started.to_string()
                << "\n";
    }
  }
  if (server.running()) {
    std::cerr << "maton-soak: serving http://" << server.address()
              << "/{metrics,metrics.json,trace,healthz}\n";
  }

  SoakState state;
  obs::Gauge& elapsed_gauge =
      obs::MetricRegistry::global().gauge("maton_soak_elapsed_seconds");
  obs::MetricRegistry::global()
      .gauge("maton_soak_duration_seconds")
      .set(opts.duration_s);

  std::thread churner([&] {
    churn_loop(opts, controller, live_binding, state);
  });
  std::thread replayer([&] {
    replay_loop(opts, replay_program, keys, state);
  });

  const auto start = std::chrono::steady_clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                  std::chrono::duration<double>(opts.duration_s));
  while (std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    elapsed_gauge.set(std::chrono::duration<double>(
                          std::chrono::steady_clock::now() - start)
                          .count());
  }
  state.stop.store(true, std::memory_order_relaxed);
  churner.join();
  replayer.join();
  const double ran_s = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  // Final gates: one last drift check against a fresh full rebuild, the
  // RSS ceiling, and zero failed intents.
  (void)check_drift(opts, live_binding, state);
  const std::uint64_t rss_peak = obs::read_peak_rss_bytes();
  const std::uint64_t rss_limit =
      static_cast<std::uint64_t>(opts.rss_limit_mb * 1024.0 * 1024.0);
  const bool rss_ok = rss_limit == 0 || rss_peak == 0 || rss_peak <= rss_limit;
  const cp::IncrementalStats inc = live_binding.incremental_stats();
  const cp::VerifyStats verify = live_binding.verify_stats();
  const double fallback_ratio =
      inc.hits + inc.fallbacks == 0
          ? 0.0
          : static_cast<double>(inc.fallbacks) /
                static_cast<double>(inc.hits + inc.fallbacks);

  obs::update_derived_gauges();
  const Status exported = obs::write_exports_from_env();
  if (!exported.is_ok()) {
    std::cerr << "maton-soak: " << exported.to_string() << "\n";
  }

  const std::uint64_t drift = state.drift.load();
  const std::uint64_t failures = state.intent_failures.load();
  const std::uint64_t cold_proof_failures = state.cold_proof_failures.load();
  std::cout << "{\n"
            << "  \"duration_s\": " << ran_s << ",\n"
            << "  \"services\": " << opts.services << ",\n"
            << "  \"backends\": " << opts.backends << ",\n"
            << "  \"representation\": \"" << cp::to_string(opts.repr)
            << "\",\n"
            << "  \"intents\": " << state.intents.load() << ",\n"
            << "  \"intent_failures\": " << failures << ",\n"
            << "  \"intent_rejections\": " << state.intent_rejections.load()
            << ",\n"
            << "  \"incremental_hits\": " << inc.hits << ",\n"
            << "  \"incremental_fallbacks\": " << inc.fallbacks << ",\n"
            << "  \"vip_collision_fallbacks\": "
            << inc.vip_collision_fallbacks << ",\n"
            << "  \"slice_validation_fallbacks\": "
            << inc.slice_validation_fallbacks << ",\n"
            << "  \"fallback_ratio\": " << fallback_ratio << ",\n"
            << "  \"symbolic_verified\": " << verify.verified << ",\n"
            << "  \"symbolic_failed\": " << verify.failed << ",\n"
            << "  \"symbolic_unknown\": " << verify.unknown << ",\n"
            << "  \"symbolic_table_hits\": " << verify.table_hits << ",\n"
            << "  \"symbolic_table_misses\": " << verify.table_misses
            << ",\n"
            << "  \"symbolic_tables_keyed\": " << verify.tables_keyed
            << ",\n"
            << "  \"drift_checks\": " << state.drift_checks.load() << ",\n"
            << "  \"drift\": " << drift << ",\n"
            << "  \"cold_proofs\": " << state.cold_proofs.load() << ",\n"
            << "  \"cold_proof_failures\": " << cold_proof_failures
            << ",\n"
            << "  \"replay_iterations\": " << state.replay_iterations.load()
            << ",\n"
            << "  \"replay_packets\": " << state.replay_packets.load()
            << ",\n"
            << "  \"rss_peak_bytes\": " << rss_peak << ",\n"
            << "  \"rss_limit_bytes\": " << rss_limit << ",\n"
            << "  \"served\": \""
            << (server.running() ? server.address() : "") << "\"\n"
            << "}\n";
  server.stop();

  if (drift != 0) {
    std::cerr << "maton-soak: FAIL: incremental program drifted from the "
                 "reference compiler\n";
    return 1;
  }
  if (cold_proof_failures != 0) {
    std::cerr << "maton-soak: FAIL: " << cold_proof_failures
              << " cold proof(s) against a fresh full rebuild did not "
                 "verify equivalence\n";
    return 1;
  }
  if (failures != 0) {
    std::cerr << "maton-soak: FAIL: " << failures << " intent(s) failed\n";
    return 1;
  }
  if (!rss_ok) {
    std::cerr << "maton-soak: FAIL: peak RSS " << rss_peak
              << " bytes exceeds limit " << rss_limit << "\n";
    return 1;
  }
  if (verify.failed != 0) {
    std::cerr << "maton-soak: FAIL: " << verify.failed
              << " symbolic verification(s) refuted the live program: "
              << live_binding.last_verify_note() << "\n";
    return 1;
  }
  if (verify.unknown != 0) {
    std::cerr << "maton-soak: FAIL: " << verify.unknown
              << " compile(s) left unproven: "
              << live_binding.last_verify_note() << "\n";
    return 1;
  }
  if (opts.max_fallback_ratio >= 0.0 &&
      fallback_ratio > opts.max_fallback_ratio) {
    std::cerr << "maton-soak: FAIL: fallback ratio " << fallback_ratio
              << " exceeds --max-fallback-ratio="
              << opts.max_fallback_ratio << "\n";
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  SoakOptions opts;
  const std::vector<std::string> args(argv + 1, argv + argc);
  if (!parse_args(args, opts, std::cerr)) return usage(std::cerr);
  try {
    return run(opts);
  } catch (const std::exception& e) {
    std::cerr << "maton-soak: " << e.what() << "\n";
    return 1;
  }
}

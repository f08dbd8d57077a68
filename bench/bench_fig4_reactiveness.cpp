// E5 — Fig. 4: reactiveness under control-plane churn (NoviFlow model).
//
// Regenerates: throughput and 3rd-quartile latency of the universal vs
// goto-normalized gwlb pipeline (N=20, M=8, 64 B packets) while a random
// service port is atomically updated at increasing rates. The paper's
// headline: at 100 updates/s the universal table loses ~20× throughput
// (8× greater churn — 8 rule-mods per intent — into a 160-entry TCAM),
// the normalized pipeline shows no visible drop, and normalization costs
// ~25-30% extra latency (one more pipeline stage) roughly independently
// of churn.
#include <chrono>
#include <fstream>
#include <iostream>

#include "controlplane/churn.hpp"
#include "controlplane/compiler.hpp"
#include "dataplane/switch.hpp"
#include "obs/diff.hpp"
#include "obs/expose.hpp"
#include "util/format.hpp"
#include "util/quantile.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"
#include "workloads/traffic.hpp"

namespace {

using namespace maton;
using cp::Representation;

struct ChurnOutcome {
  double rule_mods_per_second = 0.0;
  double stall_fraction = 0.0;
  double throughput_mpps = 0.0;
  double latency_us = 0.0;
  bool consistent = false;
  /// Stripped-partition reuse while re-mining FDs after every intent.
  double mine_cache_hit_rate = 0.0;
};

ChurnOutcome run_churn(const workloads::Gwlb& gwlb, Representation repr,
                       double rate_per_second) {
  cp::GwlbBinding binding(gwlb, repr);
  dp::HwTcamModel hw;
  const Status loaded = hw.load(binding.program());
  expects(loaded.is_ok(), "hw model rejected program");
  const std::size_t depth = hw.pipeline_depth();

  const auto schedule = cp::make_port_churn(
      {.rate_per_second = rate_per_second,
       .duration_seconds = 1.0,
       .num_services = gwlb.services.size(),
       .seed = 13});

  ChurnOutcome outcome;
  double stall_seconds = 0.0;
  std::size_t rule_mods = 0;
  for (const cp::TimedIntent& timed : schedule) {
    const auto updates = binding.compile_intent(timed.intent);
    expects(updates.is_ok(), "churn intent failed to compile");
    for (const dp::RuleUpdate& update : updates.value()) {
      const std::size_t table_size =
          hw.program().tables[update.table].rules.size();
      stall_seconds += hw.update_stall_seconds(1, table_size);
      const Status applied = hw.apply_update(update);
      expects(applied.is_ok(), "hw model rejected update");
      ++rule_mods;
    }
    // Live dependency tracking: re-mine the mutated universal table and
    // check the model FD still holds. A MoveServicePort intent only
    // rewrites the tcp_dst column, so the binding's partition cache
    // serves every other column's partitions unchanged — re-mining per
    // update instead of recomputing the world per update.
    for (const core::Fd& fd : binding.gwlb().model_fds.fds()) {
      expects(binding.mined_fds().implies(fd),
              "model FD no longer holds after churn intent");
    }
  }
  const auto cache = binding.partition_cache().stats();
  const double probes = static_cast<double>(cache.hits + cache.misses);

  outcome.rule_mods_per_second = static_cast<double>(rule_mods);
  outcome.mine_cache_hit_rate =
      probes == 0.0 ? 0.0 : static_cast<double>(cache.hits) / probes;
  outcome.stall_fraction = stall_seconds;
  outcome.throughput_mpps = hw.throughput_mpps(stall_seconds);
  // Latency is dominated by the pipeline depth; churn adds a small
  // queueing bump while updates stall the pipeline.
  outcome.latency_us =
      hw.latency_us(depth) * (1.0 + 0.15 * std::min(stall_seconds, 1.0));

  // Post-churn functional check: every service reachable on its current
  // port; this guards the cost model against drifting from the real
  // rule state.
  outcome.consistent = true;
  for (const workloads::GwlbService& svc : binding.gwlb().services) {
    dp::FlowKey key;
    key.set(dp::FieldId::kIpSrc, 0);
    key.set(dp::FieldId::kIpDst, svc.vip);
    key.set(dp::FieldId::kTcpDst, svc.port);
    if (!hw.process(key).hit) outcome.consistent = false;
  }
  return outcome;
}

// --- incremental vs full-rebuild compile latency ---------------------

struct CompileLatency {
  double median_us = 0.0;
  double p90_us = 0.0;
  double mean_us = 0.0;
  std::size_t hits = 0;
  std::size_t fallbacks = 0;
};

/// Mixed intent trace: port moves, VIP changes (always to a fresh VIP so
/// the delta path never demotes), and backend retargets.
std::vector<cp::Intent> make_intent_trace(std::size_t services,
                                          std::size_t backends,
                                          std::size_t count,
                                          std::uint64_t seed) {
  Rng rng(seed);
  std::uint32_t next_vip = 0;
  std::vector<cp::Intent> trace;
  trace.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    const std::size_t svc = rng.index(services);
    switch (rng.index(3)) {
      case 0:
        trace.push_back(cp::MoveServicePort{
            .service = svc,
            .new_port = static_cast<std::uint16_t>(
                10000 + rng.uniform(0, 40000))});
        break;
      case 1:
        trace.push_back(cp::ChangeServiceIp{
            .service = svc,
            .new_vip = ipv4(198, 19, static_cast<unsigned>(next_vip / 256),
                            static_cast<unsigned>(next_vip % 256))});
        ++next_vip;
        break;
      default:
        trace.push_back(cp::ChangeBackend{
            .service = svc,
            .backend = rng.index(backends),
            .new_out = 5000 + rng.uniform(0, 1000)});
        break;
    }
  }
  return trace;
}

CompileLatency measure_compile(const workloads::Gwlb& gwlb,
                               Representation repr, cp::CompileMode mode,
                               const std::vector<cp::Intent>& trace) {
  using BenchClock = std::chrono::steady_clock;
  cp::GwlbBinding binding(gwlb, repr, mode);
  ExactQuantile samples;
  for (const cp::Intent& intent : trace) {
    const auto start = BenchClock::now();
    const auto updates = binding.compile_intent(intent);
    const double us =
        std::chrono::duration<double, std::micro>(BenchClock::now() -
                                                  start)
            .count();
    expects(updates.is_ok(), "bench intent failed to compile");
    samples.add(us);
  }
  CompileLatency out;
  out.median_us = samples.quantile(0.5);
  out.p90_us = samples.quantile(0.9);
  out.mean_us = samples.mean();
  out.hits = binding.incremental_stats().hits;
  out.fallbacks = binding.incremental_stats().fallbacks;
  return out;
}

void json_latency(std::ostream& os, const char* key,
                  const CompileLatency& lat) {
  os << "      \"" << key << "\": {\"median_us\": " << lat.median_us
     << ", \"p90_us\": " << lat.p90_us << ", \"mean_us\": " << lat.mean_us
     << ", \"hits\": " << lat.hits << ", \"fallbacks\": " << lat.fallbacks
     << "}";
}

}  // namespace

int main() {
  std::cout << "=== E5: Fig. 4 reactiveness (NoviFlow TCAM model) ===\n"
            << "workload: 20 services x 8 backends, MoveServicePort churn\n\n";

  const auto gwlb =
      workloads::make_gwlb({.num_services = 20, .num_backends = 8});

  ReportTable table("throughput [Mpps] and p75 latency [us] vs update rate");
  table.set_header({"updates/s", "uni mods/s", "uni Mpps", "uni rel",
                    "uni lat", "goto mods/s", "goto Mpps", "goto rel",
                    "goto lat", "consistent"});

  double uni_nominal = 0.0;
  double goto_nominal = 0.0;
  // The 100-updates/s row doubles as the summary datapoint below; keep
  // its outcomes instead of re-running the whole churn experiment.
  ChurnOutcome at100;
  ChurnOutcome at100_goto;
  for (const double rate : {0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 400.0,
                            800.0, 1000.0}) {
    const ChurnOutcome uni =
        run_churn(gwlb, Representation::kUniversal, rate);
    const ChurnOutcome gt = run_churn(gwlb, Representation::kGoto, rate);
    if (rate == 0.0) {
      uni_nominal = uni.throughput_mpps;
      goto_nominal = gt.throughput_mpps;
    }
    if (rate == 100.0) {
      at100 = uni;
      at100_goto = gt;
    }
    table.add_row(
        {format_double(rate, 0),
         format_double(uni.rule_mods_per_second, 0),
         format_double(uni.throughput_mpps, 2),
         format_double(uni.throughput_mpps / uni_nominal, 3),
         format_double(uni.latency_us, 1),
         format_double(gt.rule_mods_per_second, 0),
         format_double(gt.throughput_mpps, 2),
         format_double(gt.throughput_mpps / goto_nominal, 3),
         format_double(gt.latency_us, 1),
         (uni.consistent && gt.consistent) ? "yes" : "NO"});
  }
  table.print(std::cout);

  std::cout << "at 100 updates/s: universal keeps "
            << format_double(100.0 * at100.throughput_mpps / uni_nominal, 1)
            << "% of nominal ("
            << format_double(uni_nominal / at100.throughput_mpps, 1)
            << "x loss), normalized keeps "
            << format_double(
                   100.0 * at100_goto.throughput_mpps / goto_nominal, 1)
            << "%\n";
  std::cout << "paper: ~20x loss for the universal table, no visible drop "
               "for the normalized pipeline;\n"
               "normalization costs ~25% latency (6.4 -> 8.4 us), churn-"
               "independent\n";
  std::cout << "\nlive FD re-mine after every intent: partition-cache hit "
               "rate "
            << format_double(100.0 * at100.mine_cache_hit_rate, 1)
            << "% (universal) / "
            << format_double(100.0 * at100_goto.mine_cache_hit_rate, 1)
            << "% (goto) at 100 updates/s\n";

  // --- incremental vs full-rebuild compile latency -------------------
  // Same churn intents through the delta-scoped compiler and the full
  // rebuild+diff reference; per-intent wall time, exact quantiles.
  std::cout << "\n=== incremental vs full-rebuild compile latency ===\n";
  ReportTable inc_table(
      "per-intent compile latency [us], 200 mixed intents per cell");
  inc_table.set_header({"services", "repr", "inc p50", "inc p90",
                        "full p50", "full p90", "speedup p50", "delta%"});

  constexpr std::size_t kBackends = 8;
  constexpr std::size_t kIntents = 200;
  const obs::BuildInfo build = obs::build_info();
  std::ofstream json("BENCH_fig4.json");
  json << "{\n"
       << "  \"benchmark\": \"fig4_reactiveness\",\n"
       << "  \"env\": {\"build_type\": \"" << build.build_type
       << "\", \"host_cores\": " << build.host_cores
       << "},\n"
       << "  \"workload\": {\"backends\": " << kBackends
       << ", \"intents_per_cell\": " << kIntents
       << ", \"intent_kinds\": [\"MoveServicePort\", \"ChangeServiceIp\", "
          "\"ChangeBackend\"]},\n"
       << "  \"units\": \"microseconds\",\n"
       << "  \"compile_latency\": [\n";
  bool first_row = true;
  for (const std::size_t services : {std::size_t{5}, std::size_t{10},
                                     std::size_t{20}}) {
    const auto sized_gwlb = workloads::make_gwlb(
        {.num_services = services, .num_backends = kBackends});
    const auto trace =
        make_intent_trace(services, kBackends, kIntents, 41);
    for (const Representation repr :
         {Representation::kUniversal, Representation::kGoto,
          Representation::kMetadata, Representation::kRematch}) {
      const CompileLatency inc = measure_compile(
          sized_gwlb, repr, cp::CompileMode::kIncremental, trace);
      const CompileLatency full = measure_compile(
          sized_gwlb, repr, cp::CompileMode::kFullRebuild, trace);
      const double speedup =
          inc.median_us > 0.0 ? full.median_us / inc.median_us : 0.0;
      const double delta_pct =
          100.0 * static_cast<double>(inc.hits) /
          static_cast<double>(inc.hits + inc.fallbacks);
      inc_table.add_row({std::to_string(services),
                         std::string(to_string(repr)),
                         format_double(inc.median_us, 2),
                         format_double(inc.p90_us, 2),
                         format_double(full.median_us, 2),
                         format_double(full.p90_us, 2),
                         format_double(speedup, 1),
                         format_double(delta_pct, 1)});
      if (!first_row) json << ",\n";
      first_row = false;
      json << "    {\"services\": " << services << ", \"representation\": \""
           << to_string(repr) << "\",\n";
      json_latency(json, "incremental", inc);
      json << ",\n";
      json_latency(json, "full_rebuild", full);
      json << ",\n      \"speedup_median\": " << speedup << "}";
    }
  }
  json << "\n  ]\n}\n";
  json.close();
  inc_table.print(std::cout);
  std::cout << "wrote BENCH_fig4.json (per-cell medians/p90s for the "
               "incremental and full-rebuild compilers)\n";

  const Status exported = obs::write_exports_from_env();
  if (!exported.is_ok()) {
    std::cerr << "telemetry export failed: " << exported.to_string()
              << "\n";
    return 1;
  }
  return 0;
}

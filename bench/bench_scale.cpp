// E6 — fleet scale: the columnar table substrate and flattened program
// storage at 100k–1M services.
//
// Measures, per fleet size N x 8 backends for N in {1k, 10k, 100k, 1M}:
//   * bytes/rule of the columnar universal table and of the flattened
//     dp::Program;
//   * universal-table build time;
//   * one full TANE FD mine;
//   * the binding's construction (bind: compile, the provenance
//     cross-check and the slice indexes);
//   * per-intent incremental compile latency (universal representation)
//     over a mixed churn trace, split into rule_diff / slice_merge /
//     switch_apply phases via the trace ring, with the updates applied
//     to a live hw-tcam model;
//   * peak RSS after the tier, and a drift check: the patched program
//     (compiler and switch copies) must equal a fresh full rebuild.
// Writes BENCH_scale.json; `--sizes=1000,10000` restricts the sweep.
#include <chrono>
#include <cstring>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "controlplane/compiler.hpp"
#include "core/fd_mine.hpp"
#include "dataplane/switch.hpp"
#include "obs/diff.hpp"
#include "obs/trace.hpp"
#include "util/contract.hpp"
#include "util/format.hpp"
#include "util/quantile.hpp"
#include "util/report.hpp"
#include "util/rng.hpp"

namespace {

using namespace maton;
using BenchClock = std::chrono::steady_clock;

double ms_since(BenchClock::time_point start) {
  return std::chrono::duration<double, std::milli>(BenchClock::now() - start)
      .count();
}

/// Mixed churn trace; fresh VIPs come from 172.16.0.0/12 so they collide
/// neither with the small-fleet 198.18/16 draw nor with the dense
/// 10/8 allocation of large fleets.
std::vector<cp::Intent> make_trace(std::size_t services,
                                   std::size_t backends, std::size_t count,
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
            .new_vip = ipv4(172, 16 + static_cast<unsigned>(next_vip >> 16),
                            static_cast<unsigned>((next_vip >> 8) & 0xff),
                            static_cast<unsigned>(next_vip & 0xff))});
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

struct SizePoint {
  std::size_t services = 0;
  std::size_t rules = 0;
  std::size_t bytes_per_rule_columnar = 0;
  std::size_t dp_bytes_per_rule_flat = 0;
  double build_ms = 0.0;
  double mine_ms = 0.0;
  double bind_ms = 0.0;
  std::size_t intents = 0;
  double inc_median_us = 0.0;
  double inc_p90_us = 0.0;
  double inc_mean_us = 0.0;
  double rule_diff_p50_us = 0.0;
  double slice_merge_p50_us = 0.0;
  double switch_apply_p50_us = 0.0;
  std::size_t inc_hits = 0;
  std::size_t inc_fallbacks = 0;
  std::size_t drift = 0;
  std::size_t peak_rss_mb = 0;
};

SizePoint run_size(std::size_t services, std::size_t backends,
                   std::size_t intents) {
  SizePoint pt;
  pt.services = services;
  pt.intents = intents;

  auto start = BenchClock::now();
  auto gwlb = workloads::make_gwlb(
      {.num_services = services, .num_backends = backends});
  pt.build_ms = ms_since(start);
  const std::size_t rows = gwlb.universal.num_rows();
  pt.bytes_per_rule_columnar = gwlb.universal.memory_bytes() / rows;

  start = BenchClock::now();
  const core::FdSet mined = core::mine_fds_tane(gwlb.universal);
  pt.mine_ms = ms_since(start);
  expects(!mined.fds().empty(), "scale mine found no dependencies");

  start = BenchClock::now();
  cp::GwlbBinding binding(std::move(gwlb), cp::Representation::kUniversal,
                          cp::CompileMode::kIncremental);
  pt.bind_ms = ms_since(start);
  pt.rules = binding.program().total_rules();
  pt.dp_bytes_per_rule_flat =
      binding.program().rule_memory_bytes() / pt.rules;

  // A live switch consumes every update batch; its copy of the program
  // must track the compiler's exactly (checked in the drift gate below).
  dp::HwTcamModel sw;
  expects(sw.load(binding.program()).is_ok(), "scale switch load failed");

  const auto trace = make_trace(services, backends, intents, 67);
  obs::TracerRegistry::global().clear();
  ExactQuantile samples;
  for (const cp::Intent& intent : trace) {
    start = BenchClock::now();
    const auto updates = binding.compile_intent(intent);
    const double us =
        std::chrono::duration<double, std::micro>(BenchClock::now() - start)
            .count();
    expects(updates.is_ok(), "scale intent failed to compile");
    samples.add(us);
    {
      const obs::TraceSpan span("switch_apply");
      expects(sw.apply_updates(updates.value()).is_ok(),
              "scale switch update failed");
    }
  }
  pt.inc_median_us = samples.quantile(0.5);
  pt.inc_p90_us = samples.quantile(0.9);
  pt.inc_mean_us = samples.mean();
  pt.inc_hits = binding.incremental_stats().hits;
  pt.inc_fallbacks = binding.incremental_stats().fallbacks;

  // Split the churn into phases from the merged trace rings, which are
  // cleared per tier. A ring that wrapped would drop phase samples, so
  // every span recorded must still be held.
  ExactQuantile rule_diff;
  ExactQuantile slice_merge;
  ExactQuantile switch_apply;
  const obs::TraceRing::Contents spans =
      obs::TracerRegistry::global().merged();
  expects(spans.total_recorded == spans.events.size(),
          "a trace ring wrapped: phase samples were dropped");
  for (const obs::TraceEvent& e : spans.events) {
    const std::string_view name = e.name_view();
    const double us = static_cast<double>(e.dur_ns) / 1000.0;
    if (name == "rule_diff") rule_diff.add(us);
    if (name == "slice_merge") slice_merge.add(us);
    if (name == "switch_apply") switch_apply.add(us);
  }
  pt.rule_diff_p50_us = rule_diff.count() > 0 ? rule_diff.quantile(0.5) : 0;
  pt.slice_merge_p50_us =
      slice_merge.count() > 0 ? slice_merge.quantile(0.5) : 0;
  pt.switch_apply_p50_us =
      switch_apply.count() > 0 ? switch_apply.quantile(0.5) : 0;

  // Drift gate: after the whole trace, the O(Δ)-patched program and the
  // switch's update-fed copy must both equal a fresh full rebuild of the
  // final control-plane state.
  cp::GwlbBinding rebuilt(binding.gwlb(), cp::Representation::kUniversal,
                          cp::CompileMode::kFullRebuild);
  if (!(rebuilt.program() == binding.program())) ++pt.drift;
  if (!(sw.program() == binding.program())) ++pt.drift;
  expects(pt.drift == 0, "patched program drifted from full rebuild");

  // VmHWM is process-lifetime monotone, so per-tier readings record
  // "peak so far": the largest tier's value is the honest one.
  pt.peak_rss_mb = obs::read_peak_rss_bytes() / (1024 * 1024);
  return pt;
}

}  // namespace

int main(int argc, char** argv) {
  constexpr std::size_t kBackends = 8;
  std::vector<std::size_t> sizes = {1000, 10000, 100000, 1000000};
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--sizes=", 8) == 0) {
      sizes.clear();
      std::string spec(argv[i] + 8);
      std::size_t pos = 0;
      while (pos < spec.size()) {
        const std::size_t comma = spec.find(',', pos);
        sizes.push_back(std::stoull(spec.substr(pos, comma - pos)));
        if (comma == std::string::npos) break;
        pos = comma + 1;
      }
    }
  }

  std::cout << "=== E6: fleet scale (columnar tables + flattened programs) "
               "===\n"
            << "workload: N services x " << kBackends
            << " backends, universal representation\n\n";

  ReportTable table("fleet-scale metrics per size");
  table.set_header({"services", "rules", "B/rule col", "B/rule dp",
                    "build ms", "mine ms", "bind ms", "inc p50 us",
                    "apply p50 us",
                    "RSS MB"});

  std::vector<SizePoint> points;
  for (const std::size_t services : sizes) {
    // Fewer intent samples at the large sizes: each fallback there pays
    // a full-rebuild compile over hundreds of thousands of rules.
    const std::size_t intents =
        services >= 100000 ? 20 : (services >= 10000 ? 50 : 100);
    points.push_back(run_size(services, kBackends, intents));
    const SizePoint& pt = points.back();
    table.add_row({std::to_string(pt.services), std::to_string(pt.rules),
                   std::to_string(pt.bytes_per_rule_columnar),
                   std::to_string(pt.dp_bytes_per_rule_flat),
                   format_double(pt.build_ms, 1),
                   format_double(pt.mine_ms, 1),
                   format_double(pt.bind_ms, 1),
                   format_double(pt.inc_median_us, 1),
                   format_double(pt.switch_apply_p50_us, 1),
                   std::to_string(pt.peak_rss_mb)});
  }
  table.print(std::cout);

  const obs::BuildInfo build = obs::build_info();
  std::ofstream json("BENCH_scale.json");
  json << "{\n"
       << "  \"benchmark\": \"scale\",\n"
       << "  \"env\": {\"build_type\": \"" << build.build_type
       << "\", \"host_cores\": " << build.host_cores
       << ", \"trace_enabled\": "
       << (obs::kTraceEnabled ? "true" : "false") << "},\n"
       << "  \"workload\": {\"backends\": " << kBackends
       << ", \"representation\": \"universal\", \"intent_kinds\": "
          "[\"MoveServicePort\", \"ChangeServiceIp\", \"ChangeBackend\"]},\n"
       << "  \"sizes\": [\n";
  for (std::size_t i = 0; i < points.size(); ++i) {
    const SizePoint& pt = points[i];
    json << "    {\"services\": " << pt.services << ", \"rules\": "
         << pt.rules << ",\n"
         << "     \"bytes_per_rule_columnar\": " << pt.bytes_per_rule_columnar
         << ", \"dp_bytes_per_rule_flat\": " << pt.dp_bytes_per_rule_flat
         << ",\n"
         << "     \"universal_build_ms\": " << pt.build_ms
         << ", \"full_mine_ms\": " << pt.mine_ms
         << ", \"bind_ms\": " << pt.bind_ms << ",\n"
         << "     \"peak_rss_mb\": " << pt.peak_rss_mb
         << ", \"drift\": " << pt.drift << ",\n"
         << "     \"phases\": {\"rule_diff_p50_us\": " << pt.rule_diff_p50_us
         << ", \"slice_merge_p50_us\": " << pt.slice_merge_p50_us
         << ", \"switch_apply_p50_us\": " << pt.switch_apply_p50_us
         << "},\n"
         << "     \"incremental\": {\"intents\": " << pt.intents
         << ", \"median_us\": " << pt.inc_median_us
         << ", \"p90_us\": " << pt.inc_p90_us
         << ", \"mean_us\": " << pt.inc_mean_us
         << ", \"hits\": " << pt.inc_hits
         << ", \"fallbacks\": " << pt.inc_fallbacks << "}}"
         << (i + 1 < points.size() ? ",\n" : "\n");
  }
  json << "  ]\n}\n";
  json.close();
  std::cout << "wrote BENCH_scale.json\n";
  return 0;
}

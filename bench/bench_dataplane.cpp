// P1 — Data-plane throughput baseline: scalar vs batch vs batch+threads
// per switch model on the Table-1 workload (gwlb N=20, M=8, pre-parsed
// 64B-frame keys). `bench/run_dataplane_baseline.sh` turns this suite
// into BENCH_dataplane.json, the packet-path analogue of
// BENCH_fdmine.json.
//
// Every benchmark reports items_per_second = packets per second through
// the switch under test; parsing is excluded (keys are pre-extracted),
// so scalar-vs-batch ratios isolate the execution engine itself.
#include <benchmark/benchmark.h>

#include <array>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "controlplane/compiler.hpp"
#include "dataplane/classifier_detail.hpp"
#include "dataplane/simd.hpp"
#include "dataplane/switch.hpp"
#include "obs/diff.hpp"
#include "obs/expose.hpp"
#include "util/rng.hpp"
#include "workloads/replay.hpp"
#include "workloads/traffic.hpp"

namespace {

using namespace maton;

constexpr std::size_t kNumKeys = 4096;
constexpr std::size_t kBatch = 256;

struct Setup {
  workloads::Gwlb gwlb;
  dp::Program universal;
  dp::Program goto_program;
  std::vector<dp::FlowKey> keys;

  Setup() {
    gwlb = workloads::make_gwlb({.num_services = 20, .num_backends = 8});
    universal =
        cp::GwlbBinding(gwlb, cp::Representation::kUniversal).program();
    goto_program =
        cp::GwlbBinding(gwlb, cp::Representation::kGoto).program();
    keys = workloads::make_gwlb_keys(
        gwlb, {.num_packets = kNumKeys, .hit_fraction = 1.0});
  }
};

const Setup& setup() {
  static const Setup s;
  return s;
}

[[nodiscard]] std::unique_ptr<dp::SwitchModel> make_model(
    std::string_view which) {
  if (which == "eswitch") return dp::make_eswitch_model();
  if (which == "lagopus") return dp::make_lagopus_model();
  return dp::make_ovs_model();
}

[[nodiscard]] const dp::Program& program_for(std::string_view repr) {
  return repr == "universal" ? setup().universal : setup().goto_program;
}

/// One iteration = one full pass over the 4096-key trace.
void BM_Scalar(benchmark::State& state, const char* model,
               const char* repr) {
  auto sw = make_model(model);
  if (!sw->load(program_for(repr)).is_ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const auto& keys = setup().keys;
  // Warm-up: populates the OVS megaflow cache, touches all memory.
  for (const dp::FlowKey& key : keys) (void)sw->process(key);
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (const dp::FlowKey& key : keys) {
      hits += sw->process(key).hit ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}

void BM_Batch(benchmark::State& state, const char* model,
              const char* repr) {
  auto sw = make_model(model);
  if (!sw->load(program_for(repr)).is_ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const auto& keys = setup().keys;
  std::vector<dp::ExecResult> results(kBatch);
  for (const dp::FlowKey& key : keys) (void)sw->process(key);  // warm-up
  std::uint64_t hits = 0;
  for (auto _ : state) {
    for (std::size_t base = 0; base < keys.size(); base += kBatch) {
      const std::size_t n = std::min(kBatch, keys.size() - base);
      sw->process_batch({keys.data() + base, n}, {results.data(), n});
      for (std::size_t i = 0; i < n; ++i) hits += results[i].hit ? 1 : 0;
    }
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()));
}

/// Multi-queue scaling: the trace sharded over `threads` per-queue
/// switch instances replaying concurrently (batch path). Real time, not
/// CPU time, is the meaningful denominator here.
void BM_BatchThreads(benchmark::State& state, const char* model,
                     const char* repr) {
  const auto queues = static_cast<std::size_t>(state.range(0));
  const auto& keys = setup().keys;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const workloads::ReplayStats stats = workloads::replay_threaded(
        [&] { return make_model(model); }, program_for(repr), keys,
        /*rounds=*/4, queues, kBatch);
    hits += stats.hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()) * 4);
  state.counters["queues"] = static_cast<double>(queues);
}

BENCHMARK_CAPTURE(BM_Scalar, eswitch_universal, "eswitch", "universal");
BENCHMARK_CAPTURE(BM_Scalar, eswitch_goto, "eswitch", "goto");
BENCHMARK_CAPTURE(BM_Scalar, ovs_universal, "ovs", "universal");
BENCHMARK_CAPTURE(BM_Scalar, ovs_goto, "ovs", "goto");
BENCHMARK_CAPTURE(BM_Scalar, lagopus_universal, "lagopus", "universal");
BENCHMARK_CAPTURE(BM_Scalar, lagopus_goto, "lagopus", "goto");

BENCHMARK_CAPTURE(BM_Batch, eswitch_universal, "eswitch", "universal");
BENCHMARK_CAPTURE(BM_Batch, eswitch_goto, "eswitch", "goto");
BENCHMARK_CAPTURE(BM_Batch, ovs_universal, "ovs", "universal");
BENCHMARK_CAPTURE(BM_Batch, ovs_goto, "ovs", "goto");
BENCHMARK_CAPTURE(BM_Batch, lagopus_universal, "lagopus", "universal");
BENCHMARK_CAPTURE(BM_Batch, lagopus_goto, "lagopus", "goto");

BENCHMARK_CAPTURE(BM_BatchThreads, eswitch_goto, "eswitch", "goto")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BatchThreads, eswitch_universal, "eswitch",
                  "universal")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Multi-queue scaling over ONE shared switch instance: read-only
/// classifiers, rule counters sharded per queue (process_batch_queue).
/// The delta against BM_BatchThreads at the same queue count is the
/// cost/benefit of sharing versus per-queue instance duplication.
void BM_BatchThreadsShared(benchmark::State& state, const char* model,
                           const char* repr) {
  const auto queues = static_cast<std::size_t>(state.range(0));
  auto sw = make_model(model);
  if (!sw->load(program_for(repr)).is_ok()) {
    state.SkipWithError("load failed");
    return;
  }
  const auto& keys = setup().keys;
  std::uint64_t hits = 0;
  for (auto _ : state) {
    const workloads::ReplayStats stats = workloads::replay_threaded_shared(
        *sw, keys, /*rounds=*/4, queues, kBatch);
    hits += stats.hits;
    benchmark::DoNotOptimize(hits);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(keys.size()) * 4);
  state.counters["queues"] = static_cast<double>(queues);
}

BENCHMARK_CAPTURE(BM_BatchThreadsShared, eswitch_goto, "eswitch", "goto")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_CAPTURE(BM_BatchThreadsShared, eswitch_universal, "eswitch",
                  "universal")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();

/// Kernel-level microbench: one dp::simd probe kernel over one full
/// SoA chunk, pinned to the scalar or SIMD dispatch level. items = keys,
/// so items_per_second inverts to ns/key for the kernel alone — the
/// vectorized portion of the batch probes, without hash-table lookups.
/// Shapes mirror the three integration points, all on the fused
/// mask+hash kernel (the per-group probe) at their typical field counts:
/// `tss` and `masked_group` with random masks, `exact` with full-width
/// masks (its one group).
void BM_Kernel(benchmark::State& state, const char* kernel,
               std::size_t fields, bool use_simd) {
  namespace simd = dp::simd;
  const bool forced =
      simd::force_dispatch(use_simd ? simd::Level::kAvx2
                                    : simd::Level::kScalar);
  if (use_simd && !forced) {
    simd::reset_dispatch();
    state.SkipWithError("AVX2 unavailable on this host");
    return;
  }
  const std::string_view which(kernel);
  const std::size_t n = dp::detail::kBatchChunk;
  dp::detail::LaneBlock lanes;
  dp::detail::LaneBlock masked;
  alignas(64) std::array<std::uint64_t, dp::detail::kBatchChunk> hashes{};
  std::array<std::uint64_t, dp::kNumFields> masks{};
  Rng rng(7);
  for (std::size_t f = 0; f < fields; ++f) {
    masks[f] = which == "exact" ? ~std::uint64_t{0}
                                : rng.uniform(0, ~std::uint64_t{0});
    for (std::size_t i = 0; i < n; ++i) {
      lanes.data()[f * n + i] = rng.uniform(0, ~std::uint64_t{0});
    }
  }
  for (auto _ : state) {
    simd::mask_hash_lanes(lanes.data(), n, masks.data(), fields, n,
                          masked.data(), hashes.data());
    benchmark::DoNotOptimize(hashes.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
  state.counters["simd"] = use_simd ? 1.0 : 0.0;
  simd::reset_dispatch();
}

// Field counts: the gwlb TSS subtables match a 3-field tuple; the
// masked-group probe covers wider ternary groups (5 fields); the
// exact-match group masks and hashes a 4-field key.
BENCHMARK_CAPTURE(BM_Kernel, tss_scalar, "tss", 3, false);
BENCHMARK_CAPTURE(BM_Kernel, tss_simd, "tss", 3, true);
BENCHMARK_CAPTURE(BM_Kernel, masked_group_scalar, "masked_group", 5,
                  false);
BENCHMARK_CAPTURE(BM_Kernel, masked_group_simd, "masked_group", 5, true);
BENCHMARK_CAPTURE(BM_Kernel, exact_scalar, "exact", 4, false);
BENCHMARK_CAPTURE(BM_Kernel, exact_simd, "exact", 4, true);

}  // namespace

// Expanded BENCHMARK_MAIN so the run's accumulated telemetry can be
// exported afterwards (MATON_METRICS_OUT / MATON_TRACE_OUT, see
// obs/expose.hpp). A failed export fails the bench run loudly.
int main(int argc, char** argv) {
  const maton::obs::BuildInfo build = maton::obs::build_info();
  benchmark::AddCustomContext("build_type", build.build_type);
  benchmark::AddCustomContext("host_cores",
                              std::to_string(build.host_cores));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  const maton::Status exported = maton::obs::write_exports_from_env();
  if (!exported.is_ok()) {
    std::fprintf(stderr, "telemetry export failed: %s\n",
                 exported.to_string().c_str());
    return 1;
  }
  return 0;
}

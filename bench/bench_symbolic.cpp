// S1 — Symbolic equivalence solve time vs the probe oracle.
//
// The decision-diagram engine must stay cheap enough to gate every
// compile (matonc normalize, cp::VerifyMode::kSymbolic), so this
// suite times one full equivalence solve — translate both programs into
// the shared store and compare roots — at gwlb {1k,10k,100k} universal
// rules (M=8 backends, N scaled), against the legacy randomized probe
// oracle on the same instances. Each symbolic row also records the
// diagram size: nodes interned, memo hits/lookups (state counters in
// the JSON), the honest cost driver behind the wall-clock number, and
// ns_per_node — solve time per interned node, the store's unit cost.
// `bench/run_symbolic_baseline.sh` turns the output into
// BENCH_symbolic.json with the standard env block.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstddef>
#include <map>
#include <string>
#include <utility>

#include "analysis/symbolic/engine.hpp"
#include "controlplane/compiler.hpp"
#include "core/equivalence.hpp"
#include "obs/diff.hpp"
#include "workloads/gwlb.hpp"

namespace {

using namespace maton;

constexpr std::size_t kBackends = 8;

struct Instance {
  workloads::Gwlb gwlb;
  dp::Program program;    // the named representation
  dp::Program reference;  // independent recompile of the same pipeline
  core::Pipeline pipeline;
};

/// Instances keyed by (representation, universal rules), built once.
const Instance& instance(cp::Representation repr, std::size_t rules) {
  static std::map<std::pair<cp::Representation, std::size_t>, Instance>
      cache;
  auto [it, inserted] = cache.try_emplace({repr, rules});
  if (inserted) {
    Instance& inst = it->second;
    inst.gwlb = workloads::make_gwlb(
        {.num_services = rules / kBackends, .num_backends = kBackends});
    inst.program = cp::GwlbBinding(inst.gwlb, repr).program();
    inst.pipeline = cp::pipeline_for(inst.gwlb, repr);
    inst.reference = dp::compile(inst.pipeline).value();
  }
  return it->second;
}

/// One iteration = one full solve: fresh store, translate both lowered
/// programs, compare canonical roots.
void BM_Symbolic(benchmark::State& state, cp::Representation repr,
                 std::size_t rules) {
  const Instance& inst = instance(repr, rules);
  analysis::symbolic::Options options;
  options.max_nodes = std::size_t{1} << 26;  // never bail in-bench
  analysis::symbolic::StoreStats stats;
  std::chrono::steady_clock::duration solving{0};
  for (auto _ : state) {
    const auto start = std::chrono::steady_clock::now();
    const auto result = analysis::symbolic::check_programs(
        inst.program, inst.reference, options);
    solving += std::chrono::steady_clock::now() - start;
    if (!result.equivalent()) {
      state.SkipWithError("solver did not prove equivalence");
      return;
    }
    stats = result.stats;
    benchmark::DoNotOptimize(result.outcome);
  }
  state.counters["nodes"] = static_cast<double>(stats.nodes);
  state.counters["memo_hits"] = static_cast<double>(stats.memo_hits);
  state.counters["memo_lookups"] =
      static_cast<double>(stats.memo_lookups);
  const double node_solves =
      static_cast<double>(stats.nodes) * static_cast<double>(state.iterations());
  state.counters["ns_per_node"] =
      node_solves > 0
          ? static_cast<double>(
                std::chrono::nanoseconds(solving).count()) / node_solves
          : 0.0;
  state.counters["rules"] = static_cast<double>(rules);
}

/// The baseline the symbolic engine replaces: the randomized probe
/// oracle checking the universal table against the decomposed pipeline.
/// Sampled, not exhaustive — same wall-clock question, weaker answer.
void BM_Probe(benchmark::State& state, cp::Representation repr,
              std::size_t rules) {
  const Instance& inst = instance(repr, rules);
  std::size_t packets = 0;
  for (auto _ : state) {
    const auto eq =
        core::check_equivalence(inst.gwlb.universal, inst.pipeline);
    if (!eq.equivalent) {
      state.SkipWithError("probe oracle found a divergence");
      return;
    }
    packets = eq.packets_checked;
    benchmark::DoNotOptimize(eq.equivalent);
  }
  state.counters["probe_packets"] = static_cast<double>(packets);
  state.counters["rules"] = static_cast<double>(rules);
}

void register_all() {
  const struct {
    const char* name;
    cp::Representation repr;
  } reprs[] = {
      {"universal", cp::Representation::kUniversal},
      {"goto", cp::Representation::kGoto},
      {"metadata", cp::Representation::kMetadata},
      {"rematch", cp::Representation::kRematch},
  };
  const struct {
    const char* name;
    std::size_t rules;
  } sizes[] = {{"1k", 1000}, {"10k", 10000}, {"100k", 100000}};
  for (const auto& repr : reprs) {
    for (const auto& size : sizes) {
      const std::string suffix =
          std::string(repr.name) + "_" + size.name;
      benchmark::RegisterBenchmark(
          ("BM_Symbolic/" + suffix).c_str(),
          [repr, size](benchmark::State& state) {
            BM_Symbolic(state, repr.repr, size.rules);
          })
          ->Unit(benchmark::kMillisecond);
      benchmark::RegisterBenchmark(
          ("BM_Probe/" + suffix).c_str(),
          [repr, size](benchmark::State& state) {
            BM_Probe(state, repr.repr, size.rules);
          })
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace

int main(int argc, char** argv) {
  const maton::obs::BuildInfo build = maton::obs::build_info();
  benchmark::AddCustomContext("build_type", build.build_type);
  benchmark::AddCustomContext("host_cores",
                              std::to_string(build.host_cores));
  register_all();
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

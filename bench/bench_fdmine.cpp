// A2 — Ablation: functional-dependency mining scalability.
//
// Compares the exhaustive subset miner against the TANE lattice miner
// across table sizes (rows) and widths (columns), plus the cost of the
// downstream closure machinery (minimal cover, candidate keys) and a
// full normalize() on generated workloads.
#include <benchmark/benchmark.h>

#include <string>

#include "core/fd_mine.hpp"
#include "core/keys.hpp"
#include "core/synthesis.hpp"
#include "obs/diff.hpp"
#include "util/rng.hpp"
#include "workloads/gwlb.hpp"
#include "workloads/l3fwd.hpp"

namespace {

using namespace maton;
using core::Table;

Table random_table(std::size_t rows, std::size_t cols, std::uint64_t domain,
                   std::uint64_t seed) {
  core::Schema schema;
  for (std::size_t c = 0; c < cols; ++c) {
    schema.add_match("f" + std::to_string(c));
  }
  Table t("bench", std::move(schema));
  Rng rng(seed);
  for (std::size_t r = 0; r < rows; ++r) {
    core::Row row;
    for (std::size_t c = 0; c < cols; ++c) {
      row.push_back(rng.uniform(0, domain));
    }
    t.add_row(row);
  }
  return t;
}

void BM_MineNaive(benchmark::State& state) {
  const Table t = random_table(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 3,
                               7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fds_naive(t));
  }
  state.SetLabel(std::to_string(t.num_rows()) + " rows x " +
                 std::to_string(t.num_cols()) + " cols");
}
BENCHMARK(BM_MineNaive)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({64, 6})
    ->Args({64, 8});

void BM_MineTane(benchmark::State& state) {
  const Table t = random_table(static_cast<std::size_t>(state.range(0)),
                               static_cast<std::size_t>(state.range(1)), 3,
                               7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fds_tane(t));
  }
}
BENCHMARK(BM_MineTane)
    ->Args({16, 4})
    ->Args({64, 4})
    ->Args({256, 4})
    ->Args({1024, 4})
    ->Args({64, 6})
    ->Args({64, 8})
    ->Args({1024, 8})
    ->Args({4096, 8});

// Thread-count sweep on the acceptance-criteria table (4096 x 8).
// threads = 0 is the strictly sequential engine; larger counts fan the
// lattice out over the shared pool (bounded by the machine's cores).
void BM_MineTaneThreads(benchmark::State& state) {
  const Table t = random_table(4096, 8, 3, 7);
  const core::MineOptions opts{
      .threads = static_cast<std::size_t>(state.range(0))};
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fds_tane(t, opts));
  }
}
BENCHMARK(BM_MineTaneThreads)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// Repeated mining of one unchanged table (the control-plane re-mine
// pattern): cold = no cache, every call recomputes all partitions;
// cached = a PartitionCache persists across the 10 calls.
void BM_MineTaneRepeatedCold(benchmark::State& state) {
  const Table t = random_table(4096, 8, 3, 7);
  for (auto _ : state) {
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(core::mine_fds_tane(t));
    }
  }
}
BENCHMARK(BM_MineTaneRepeatedCold);

void BM_MineTaneRepeatedCached(benchmark::State& state) {
  const Table t = random_table(4096, 8, 3, 7);
  for (auto _ : state) {
    core::tane::PartitionCache cache;
    for (int i = 0; i < 10; ++i) {
      benchmark::DoNotOptimize(
          core::mine_fds_tane(t, {.cache = &cache}));
    }
  }
}
BENCHMARK(BM_MineTaneRepeatedCached);

// Churn-style reuse: each iteration perturbs one column's contents, so
// the cache serves the other columns' partitions across calls (the
// cross-call case the engine is built for).
void BM_MineTaneChurnCached(benchmark::State& state) {
  const Table t = random_table(1024, 8, 3, 7);
  core::tane::PartitionCache cache;
  std::uint64_t tick = 0;
  for (auto _ : state) {
    // Rewrite column 7 only, differently per iteration.
    Table mutated("bench", t.schema());
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      core::Row row = t.row(r);
      row[7] = (row[7] + tick) % 5;
      mutated.add_row(row);
    }
    ++tick;
    benchmark::DoNotOptimize(
        core::mine_fds_tane(mutated, {.cache = &cache}));
  }
}
BENCHMARK(BM_MineTaneChurnCached);

void BM_MineTaneGwlb(benchmark::State& state) {
  const auto gwlb = workloads::make_gwlb(
      {.num_services = static_cast<std::size_t>(state.range(0)),
       .num_backends = 8});
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::mine_fds_tane(gwlb.universal));
  }
}
BENCHMARK(BM_MineTaneGwlb)->Arg(5)->Arg(20)->Arg(80);

void BM_MinimalCover(benchmark::State& state) {
  const Table t = random_table(64, 6, 2, 9);
  const core::FdSet mined = core::mine_fds_tane(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(mined.minimal_cover());
  }
}
BENCHMARK(BM_MinimalCover);

void BM_CandidateKeys(benchmark::State& state) {
  const Table t = random_table(64, 8, 2, 11);
  const core::FdSet mined = core::mine_fds_tane(t);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::candidate_keys(mined, t.schema().all()));
  }
}
BENCHMARK(BM_CandidateKeys);

void BM_NormalizeGwlb(benchmark::State& state) {
  const auto gwlb = workloads::make_gwlb(
      {.num_services = static_cast<std::size_t>(state.range(0)),
       .num_backends = 8});
  core::FdSet model = gwlb.model_fds;
  model.add(gwlb.universal.schema().match_set(),
            gwlb.universal.schema().all());
  for (auto _ : state) {
    auto out = core::normalize(gwlb.universal,
                               {.join = core::JoinKind::kGoto,
                                .model_fds = model});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_NormalizeGwlb)->Arg(5)->Arg(20);

void BM_NormalizeL3(benchmark::State& state) {
  const auto l3 = workloads::make_l3fwd(
      {.num_prefixes = static_cast<std::size_t>(state.range(0)),
       .num_nexthops = 16,
       .num_ports = 4});
  core::FdSet model = l3.model_fds;
  model.add(l3.universal.schema().match_set(), l3.universal.schema().all());
  for (auto _ : state) {
    auto out = core::normalize(l3.universal,
                               {.join = core::JoinKind::kMetadata,
                                .model_fds = model});
    benchmark::DoNotOptimize(out);
  }
}
BENCHMARK(BM_NormalizeL3)->Arg(64)->Arg(256);

}  // namespace

// Expanded BENCHMARK_MAIN so every emitted JSON carries the build type
// and host core count in its context block (recorded numbers from a
// 1-core debug host are not comparable to release hardware).
int main(int argc, char** argv) {
  const maton::obs::BuildInfo build = maton::obs::build_info();
  benchmark::AddCustomContext("build_type", build.build_type);
  benchmark::AddCustomContext("host_cores",
                              std::to_string(build.host_cores));
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

#include "analysis/symbolic/engine.hpp"

#include <string>

#include "analysis/symbolic/internal.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace maton::analysis::symbolic {

std::string_view to_string(Outcome outcome) noexcept {
  switch (outcome) {
    case Outcome::kEquivalent:
      return "equivalent";
    case Outcome::kInequivalent:
      return "inequivalent";
    case Outcome::kUnknown:
      return "unknown";
  }
  return "unknown";
}

std::string describe(const Result& result) {
  switch (result.outcome) {
    case Outcome::kEquivalent:
      return "yes";
    case Outcome::kInequivalent:
      return "NO: " + result.counterexample.value().description;
    case Outcome::kUnknown:
      break;
  }
  return "unknown: " + result.note;
}

std::string_view to_string(SliceRelation relation) noexcept {
  switch (relation) {
    case SliceRelation::kDisjoint:
      return "disjoint";
    case SliceRelation::kIntersecting:
      return "intersecting";
  }
  return "intersecting";
}

namespace detail {

SolveCounters::SolveCounters(std::string_view check) {
  for (const Outcome outcome :
       {Outcome::kEquivalent, Outcome::kInequivalent, Outcome::kUnknown}) {
    by_outcome[static_cast<std::size_t>(outcome)] =
        &obs::MetricRegistry::global().counter(
            "maton_symbolic_solves_total",
            {{"check", std::string(check)},
             {"outcome", std::string(to_string(outcome))}});
  }
}

Result guarded(const Options& options, const std::function<Result()>& body) {
  try {
    return body();
  } catch (const NodeBudgetExceeded&) {
    Result result;
    result.note = "node budget exceeded (" +
                  std::to_string(options.max_nodes) + " nodes)";
    return result;
  } catch (const TranslationBail& bail) {
    Result result;
    result.note = bail.note;
    return result;
  }
}

void record(const SolveCounters& counters, const Result& result) {
  counters.by_outcome[static_cast<std::size_t>(result.outcome)]->add(1);
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& nodes =
      registry.counter("maton_symbolic_nodes_total");
  static obs::Counter& memo_hits =
      registry.counter("maton_symbolic_memo_hits_total");
  static obs::Counter& memo_lookups =
      registry.counter("maton_symbolic_memo_lookups_total");
  static obs::Counter& table_hits =
      registry.counter("maton_symbolic_table_cache_hits_total");
  static obs::Counter& table_misses =
      registry.counter("maton_symbolic_table_cache_misses_total");
  static obs::Counter& tables_keyed =
      registry.counter("maton_symbolic_tables_keyed_total");
  static obs::Counter& successor_patches =
      registry.counter("maton_symbolic_successor_patches_total");
  nodes.add(result.stats.nodes);
  memo_hits.add(result.stats.memo_hits);
  memo_lookups.add(result.stats.memo_lookups);
  table_hits.add(result.stats.table_hits);
  table_misses.add(result.stats.table_misses);
  tables_keyed.add(result.stats.tables_keyed);
  successor_patches.add(result.stats.successor_patches);
}

Result run_guarded(const SolveCounters& counters, const Options& options,
                   const std::function<Result(DiagramStore&)>& body) {
  const obs::TraceSpan span("symbolic_solve");
  DiagramStore store(options.max_nodes);
  Result result = guarded(options, [&] { return body(store); });
  result.stats = store.stats();
  record(counters, result);
  return result;
}

}  // namespace detail
}  // namespace maton::analysis::symbolic

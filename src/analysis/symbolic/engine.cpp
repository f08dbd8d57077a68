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
    case SliceRelation::kUnknown:
      return "unknown";
  }
  return "unknown";
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

Result run_guarded(const SolveCounters& counters, const Options& options,
                   const std::function<Result(DiagramStore&)>& body) {
  const obs::TraceSpan span("symbolic_solve");
  DiagramStore store(options.max_nodes);
  Result result;
  try {
    result = body(store);
  } catch (const NodeBudgetExceeded&) {
    result = {};
    result.outcome = Outcome::kUnknown;
    result.note = "node budget exceeded (" +
                  std::to_string(options.max_nodes) + " nodes)";
  } catch (const TranslationBail& bail) {
    result = {};
    result.outcome = Outcome::kUnknown;
    result.note = bail.note;
  }
  result.stats = store.stats();

  counters.by_outcome[static_cast<std::size_t>(result.outcome)]->add(1);
  auto& registry = obs::MetricRegistry::global();
  static obs::Counter& nodes =
      registry.counter("maton_symbolic_nodes_total");
  static obs::Counter& memo_hits =
      registry.counter("maton_symbolic_memo_hits_total");
  static obs::Counter& memo_lookups =
      registry.counter("maton_symbolic_memo_lookups_total");
  nodes.add(result.stats.nodes);
  memo_hits.add(result.stats.memo_hits);
  memo_lookups.add(result.stats.memo_lookups);
  return result;
}

}  // namespace detail
}  // namespace maton::analysis::symbolic

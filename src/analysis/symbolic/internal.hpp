// Shared plumbing of the symbolic front-ends: the translation bail-out,
// the guard that turns budget/bail exceptions into kUnknown results, and
// the obs span + counters every solve records.
//
// Internal to src/analysis/symbolic/ — not part of the engine API.
#pragma once

#include <array>
#include <functional>
#include <string>

#include "analysis/symbolic/engine.hpp"
#include "obs/metrics.hpp"

namespace maton::analysis::symbolic::detail {

/// Thrown by a front-end when translation cannot proceed for a
/// non-budget reason (cyclic table graph, jump out of range). Caught by
/// run_guarded; never escapes the API.
struct TranslationBail {
  std::string note;
};

/// maton_symbolic_solves_total{check, outcome}, one counter per Outcome,
/// looked up in the registry once per front-end instead of per solve.
struct SolveCounters {
  explicit SolveCounters(std::string_view check);
  std::array<obs::Counter*, 3> by_outcome{};
};

/// Runs `body` under the engine's exception contract: NodeBudgetExceeded
/// (over `options.max_nodes`) and TranslationBail become kUnknown
/// results.
[[nodiscard]] Result guarded(const Options& options,
                             const std::function<Result()>& body);

/// Feeds one finished solve into the maton_symbolic_* counters;
/// `counters` is the front-end's solve counter.
void record(const SolveCounters& counters, const Result& result);

/// Runs `body` with a fresh store under guarded(), inside a
/// "symbolic_solve" trace span, and records the result with the store's
/// tallies.
[[nodiscard]] Result run_guarded(
    const SolveCounters& counters, const Options& options,
    const std::function<Result(DiagramStore&)>& body);

}  // namespace maton::analysis::symbolic::detail

// Shared plumbing of the symbolic front-ends: the translation bail-out,
// the guard that turns budget/bail exceptions into kUnknown results, and
// the obs span + counters every solve records.
//
// Internal to src/analysis/symbolic/ — not part of the engine API.
#pragma once

#include <array>
#include <string>

#include "analysis/symbolic/engine.hpp"
#include "obs/metrics.hpp"

namespace maton::analysis::symbolic::detail {

/// Thrown by a front-end when translation cannot proceed for a
/// non-budget reason (cyclic table graph, jump out of range). Caught by
/// guarded(); never escapes the API.
struct TranslationBail {
  std::string note;
};

/// maton_symbolic_solves_total{check, outcome}, one counter per Outcome,
/// looked up in the registry once per front-end instead of per solve.
struct SolveCounters {
  explicit SolveCounters(std::string_view check);
  std::array<obs::Counter*, 3> by_outcome{};
};

/// Runs `body` (`() -> Result`) under the engine's exception contract:
/// NodeBudgetExceeded (over `options.max_nodes`) and TranslationBail
/// become kUnknown results. A template, so a capturing body costs no
/// std::function allocation per solve.
template <typename Body>
[[nodiscard]] Result guarded(const Options& options, Body&& body) {
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

/// Feeds one finished solve into the maton_symbolic_* counters;
/// `counters` is the front-end's solve counter.
void record(const SolveCounters& counters, const Result& result);

}  // namespace maton::analysis::symbolic::detail

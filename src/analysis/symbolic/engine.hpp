// Symbolic packet-set equivalence engine (DESIGN.md §15): decides
// whether two match-action programs implement the same packet function
// by translating both into one canonical decision-diagram store
// (see dd.hpp) and comparing roots — equivalence is NodeId equality, no
// packet enumeration.
//
// Three front-ends cover the program representations:
//   check_programs           lowered dp::Program vs dp::Program
//   check_pipelines          core::Pipeline vs core::Pipeline
//   check_table_vs_pipeline  universal core::Table vs its decomposition
//
// Contract:
//  * kEquivalent / kInequivalent verdicts are exact over the checked
//    domain (all fully-assigned header keys for dp programs; all packets
//    binding the matched header attributes — and no initial metadata —
//    for core pipelines).
//  * Every kInequivalent result carries a concrete counterexample packet
//    extracted from the first divergent diagram path and re-confirmed by
//    the scalar interpreter (execute_reference / Pipeline::evaluate)
//    before being reported. If confirmation ever fails the engine
//    answers kUnknown, not a wrong verdict.
//  * Exceeding Options::max_nodes yields kUnknown with a note — budgets
//    can cost an answer, never correctness.
#pragma once

#include <optional>
#include <span>
#include <string>

#include "analysis/symbolic/dd.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "dataplane/program.hpp"

namespace maton::analysis::symbolic {

struct Options {
  /// Node budget of the diagram store backing one check.
  std::size_t max_nodes = std::size_t{1} << 22;
};

enum class Outcome { kEquivalent, kInequivalent, kUnknown };

[[nodiscard]] std::string_view to_string(Outcome outcome) noexcept;

/// Concrete packet on which the two programs diverge; exactly one of
/// `key` / `packet` is set depending on the front-end's universe.
struct Counterexample {
  std::optional<dp::FlowKey> key;           ///< dp front-end
  std::optional<core::PacketState> packet;  ///< core front-ends
  /// Human-readable "input → left observable vs right observable".
  std::string description;
};

struct Result {
  Outcome outcome = Outcome::kUnknown;
  std::optional<Counterexample> counterexample;
  StoreStats stats;
  /// Why the outcome is kUnknown (budget, cyclic program, ...); empty
  /// for definite verdicts.
  std::string note;

  [[nodiscard]] bool equivalent() const noexcept {
    return outcome == Outcome::kEquivalent;
  }
};

/// The verdict as a report prints it, with its evidence: "yes",
/// "NO: <confirmed counterexample>" or "unknown: <solver note>".
[[nodiscard]] std::string describe(const Result& result);

/// Proves or refutes ∀key: execute_reference(a, key) ≡ execute_reference
/// (b, key) on the (hit, out_port) observable.
[[nodiscard]] Result check_programs(const dp::Program& a,
                                    const dp::Program& b,
                                    const Options& options = {});

/// Proves or refutes ∀packet: a.evaluate(packet) ≡ b.evaluate(packet) on
/// the (hit, actions) observable, over packets that bind the matched
/// header attributes and carry no initial metadata.
[[nodiscard]] Result check_pipelines(const core::Pipeline& a,
                                     const core::Pipeline& b,
                                     const Options& options = {});

/// Decomposition soundness: the universal table (as a one-stage
/// pipeline) against its decomposed pipeline.
[[nodiscard]] Result check_table_vs_pipeline(const core::Table& universal,
                                             const core::Pipeline& pipeline,
                                             const Options& options = {});

/// Relation between the packet regions two dp rule slices can match.
enum class SliceRelation { kDisjoint, kIntersecting, kUnknown };

[[nodiscard]] std::string_view to_string(SliceRelation relation) noexcept;

/// Proves whether the union of `a`'s match regions intersects the union
/// of `b`'s (the MA602 slice-isolation proof and the incremental
/// compiler's VIP-collision guard). kUnknown only on budget exhaustion.
[[nodiscard]] SliceRelation slices_relation(std::span<const dp::Rule> a,
                                            std::span<const dp::Rule> b,
                                            const Options& options = {});

}  // namespace maton::analysis::symbolic

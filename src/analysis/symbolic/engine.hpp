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
//
// ProgramProver is check_programs with a store that persists across
// calls (the per-intent proofs of cp::GwlbBinding); check_programs is its
// one-shot use, so both run one code path.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "analysis/symbolic/dd.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "dataplane/program.hpp"

namespace maton::analysis::symbolic {

struct Options {
  /// Node budget of one diagram store. A ProgramProver's store lives
  /// across checks, so a warm check that overflows it drops the store and
  /// retries once from an empty one; only an overflow from empty is
  /// kUnknown. A store caps it at 2^29 nodes.
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

/// check_programs with memory across calls: one diagram store and a
/// content-addressed table cache persist between checks, so a check
/// re-folds only the tables whose content changed.
///
/// A table's cache key is its satisfiable rules in scan order (matches
/// and actions) and the NodeIds of their successor tables' diagrams; a
/// hit needs the whole key to be equal, not just its hash. The store is
/// canonical, so a cached diagram is the NodeId a fresh fold would
/// intern, and a warm verdict is the verdict of a cold one. Before
/// building a key, the prover asks the slot of the table's position: a
/// table whose dp::FlatRules revision and default successor match what
/// the position held in the previous check holds the same rules as the
/// slot's entry, so no key is built. The entry is reused when its
/// successors' diagrams are unchanged, and patched in place inside the
/// regions of the rules whose successor diagram moved otherwise. A
/// changed table is patched from the version its position held in the
/// previous check. Entries the latest check did not use are dropped.
/// The store keeps its unique table and operator cache between checks,
/// and it is compacted in place to the cached diagrams once it has
/// doubled since the last compaction (the first warm check compacts
/// away the cold proof's garbage).
class ProgramProver {
 public:
  explicit ProgramProver(const Options& options = {});
  ~ProgramProver();
  ProgramProver(ProgramProver&&) noexcept;
  ProgramProver& operator=(ProgramProver&&) noexcept;

  /// Proves or refutes ∀key: execute_reference(a, key) ≡
  /// execute_reference(b, key) on the (hit, out_port) observable.
  [[nodiscard]] Result check(const dp::Program& a, const dp::Program& b);

  /// Nodes the persistent store holds between checks (0 before the
  /// first check and after an overflow from empty).
  [[nodiscard]] std::size_t store_nodes() const noexcept;
  /// Warm checks that overflowed the budget and were retried cold.
  [[nodiscard]] std::size_t resets() const noexcept;

  struct State;  ///< defined in program_dd.cpp

 private:
  std::unique_ptr<State> state_;
};

/// One-shot ProgramProver(options).check(a, b).
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
enum class SliceRelation { kDisjoint, kIntersecting };

[[nodiscard]] std::string_view to_string(SliceRelation relation) noexcept;

/// Decides whether the union of `a`'s match regions intersects the union
/// of `b`'s (the MA602 slice-isolation proof and the incremental
/// compiler's VIP-collision guard). A rule's region is one cube, so the
/// answer is exact from the pairs of rules: O(|a|·|b|), no diagram store.
[[nodiscard]] SliceRelation slices_relation(std::span<const dp::Rule> a,
                                            std::span<const dp::Rule> b);

}  // namespace maton::analysis::symbolic

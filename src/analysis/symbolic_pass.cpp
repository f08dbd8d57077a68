// Symbolic equivalence pass (MA6xx): runs the decision-diagram engine
// (symbolic/engine.hpp) over the analyzer inputs and reports proofs and
// refutations as diagnostics.
//
//   MA601 error    the two lowered programs are inequivalent; the
//                  witness is a concrete flow key the scalar interpreter
//                  confirmed diverges.
//   MA602 info     a slice-isolation proof: the two slices' match
//                  regions are provably disjoint. Escalates to warning
//                  when they provably intersect.
//   MA603 error    a decomposed pipeline computes a different function
//                  than its universal table; witness is a confirmed
//                  counterexample packet.
//   MA604 warning  the solver returned no verdict (node budget, cyclic
//                  program, normalization cap); the note says why.
#include <string>
#include <utility>

#include "analysis/analysis.hpp"
#include "analysis/symbolic/engine.hpp"

namespace maton::analysis {
namespace {

symbolic::Options solver_options(const Options& options) {
  symbolic::Options solver;
  solver.max_nodes = options.symbolic_max_nodes;
  return solver;
}

void emit_unknown(detail::Sink& sink, const std::string& subject,
                  const std::string& note) {
  Diagnostic d;
  d.severity = Severity::kWarning;
  d.code = "MA604";
  d.message = "symbolic solver gave no verdict for " + subject;
  d.witness = note;
  sink.emit(std::move(d));
}

}  // namespace

void run_symbolic_pass(const Input& input, const Options& options,
                       Report& report) {
  detail::Sink sink("symbolic", options, report);
  const symbolic::Options solver = solver_options(options);

  if (input.program_pair.has_value() &&
      input.program_pair->left != nullptr &&
      input.program_pair->right != nullptr) {
    sink.mark_ran();
    const Input::ProgramPairCheck& check = *input.program_pair;
    const std::string subject =
        "programs '" + check.left_name + "' vs '" + check.right_name + "'";
    const symbolic::Result result =
        symbolic::check_programs(*check.left, *check.right, solver);
    switch (result.outcome) {
      case symbolic::Outcome::kEquivalent:
        break;  // silence is the proof
      case symbolic::Outcome::kInequivalent: {
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "MA601";
        d.message = subject + " are not equivalent";
        d.witness = result.counterexample.has_value()
                        ? result.counterexample->description
                        : "";
        sink.emit(std::move(d));
        break;
      }
      case symbolic::Outcome::kUnknown:
        emit_unknown(sink, subject, result.note);
        break;
    }
  }

  for (const Input::SliceIsolationCheck& check : input.slices) {
    sink.mark_ran();
    const std::string subject = "slices '" + check.left_name + "' vs '" +
                                check.right_name + "'";
    switch (symbolic::slices_relation(check.left, check.right)) {
      case symbolic::SliceRelation::kDisjoint: {
        // The positive certificate is reported (like the NF-status
        // lints): isolation is a property callers rely on, so the proof
        // should be visible in the report, not inferred from silence.
        Diagnostic d;
        d.severity = Severity::kInfo;
        d.code = "MA602";
        d.message = subject + " are proven disjoint";
        d.witness = std::to_string(check.left.size()) + " vs " +
                    std::to_string(check.right.size()) + " rules";
        sink.emit(std::move(d));
        break;
      }
      case symbolic::SliceRelation::kIntersecting: {
        Diagnostic d;
        d.severity = Severity::kWarning;
        d.code = "MA602";
        d.message = subject + " match overlapping packet regions";
        d.witness = std::to_string(check.left.size()) + " vs " +
                    std::to_string(check.right.size()) + " rules";
        sink.emit(std::move(d));
        break;
      }
    }
  }

  if (input.symbolic_decomposition.has_value() &&
      input.symbolic_decomposition->universal != nullptr &&
      input.symbolic_decomposition->pipeline != nullptr) {
    sink.mark_ran();
    const Input::SymbolicDecompositionCheck& check =
        *input.symbolic_decomposition;
    const std::string subject = "decomposition '" + check.name + "'";
    const symbolic::Result result = symbolic::check_table_vs_pipeline(
        *check.universal, *check.pipeline, solver);
    switch (result.outcome) {
      case symbolic::Outcome::kEquivalent:
        break;
      case symbolic::Outcome::kInequivalent: {
        Diagnostic d;
        d.severity = Severity::kError;
        d.code = "MA603";
        d.message =
            subject + " does not reproduce the universal table's function";
        d.witness = result.counterexample.has_value()
                        ? result.counterexample->description
                        : "";
        sink.emit(std::move(d));
        break;
      }
      case symbolic::Outcome::kUnknown:
        emit_unknown(sink, subject, result.note);
        break;
    }
  }
}

}  // namespace maton::analysis

// maton-analyze: static analysis of match-action programs.
//
// The analyzer checks, without running a single packet, that a compiled
// dataplane::Program (and the core relational model it was lowered from)
// is well-formed: no rule is dead (shadowing), every table is reachable
// and the stage graph is acyclic (reachability), no stage matches a
// metadata field that no upstream action can have set (dataflow), the
// declared functional dependencies hold and the tables sit where they
// should in the normal-form hierarchy (schema/NF), and a decomposed
// program's join is provably lossless via FD closure — Theorem 1 checked
// symbolically, without materializing the join (decomposition).
//
// Passes run over a shared immutable Input and append Diagnostics to a
// Report. The suite is cheap enough to run after every control-plane
// compile (see cp::AnalyzeMode): all passes are polynomial, and the
// info-severity normal-form status lints (which need instance FD mining)
// are skipped entirely when Options::min_severity filters them out.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <vector>

#include "analysis/diagnostic.hpp"
#include "core/fd.hpp"
#include "core/pipeline.hpp"
#include "core/table.hpp"
#include "dataplane/program.hpp"

namespace maton::analysis {

/// What to analyze. All pointers are borrowed and must outlive run();
/// every part is optional — passes that lack their input are skipped
/// (reported with ran = false in the pass stats).
struct Input {
  /// Compiled program: shadowing, reachability and dataflow passes.
  const dp::Program* program = nullptr;

  /// Core-side relational view: schema/NF conformance lints.
  struct TableCheck {
    const core::Table* table = nullptr;
    /// Declared (model-level) dependencies that must hold in the
    /// instance; may be null when only structural 1NF checks apply.
    const core::FdSet* declared_fds = nullptr;
  };
  std::vector<TableCheck> tables;

  /// Decomposition-safety: prove via FD closure that re-joining the
  /// component schemas reproduces the original relation (Theorem 1).
  struct DecompositionCheck {
    /// Schema of the original (universal) relation.
    const core::Schema* schema = nullptr;
    /// Dependencies the proof may use (declared model FDs plus the
    /// match-key dependency; instance-mined sets also work).
    const core::FdSet* fds = nullptr;
    /// Component attribute sets over `schema`, in pipeline order.
    std::vector<core::AttrSet> components;
    /// Name used in diagnostics (e.g. the program or pipeline name).
    std::string name;
  };
  std::optional<DecompositionCheck> decomposition;

  /// Symbolic equivalence of two lowered programs (MA601): proves or
  /// refutes that both compute the same (hit, out_port) function, with a
  /// concrete counterexample key on refutation.
  struct ProgramPairCheck {
    const dp::Program* left = nullptr;
    const dp::Program* right = nullptr;
    std::string left_name;
    std::string right_name;
  };
  std::optional<ProgramPairCheck> program_pair;

  /// Slice-isolation proof (MA602): are the packet regions of two rule
  /// slices provably disjoint? The slices are borrowed.
  struct SliceIsolationCheck {
    const dp::FlatRules* left = nullptr;
    const dp::FlatRules* right = nullptr;
    std::string left_name;
    std::string right_name;
  };
  std::vector<SliceIsolationCheck> slices;

  /// Decomposition equivalence proof (MA603): the universal table
  /// against its decomposed pipeline, on the evaluate() observable —
  /// the semantic complement of the FD-closure proof (MA5xx).
  struct SymbolicDecompositionCheck {
    const core::Table* universal = nullptr;
    const core::Pipeline* pipeline = nullptr;
    std::string name;
  };
  std::optional<SymbolicDecompositionCheck> symbolic_decomposition;
};

struct Options {
  /// Diagnostics below this severity are neither reported nor computed
  /// (the info-only NF-status lints skip their FD mining entirely).
  Severity min_severity = Severity::kInfo;
  /// Per-pass cap; a truncation notice (MA001) is appended when hit.
  std::size_t max_diagnostics_per_pass = 64;
  /// Pass toggles.
  bool shadowing = true;
  bool reachability = true;
  bool dataflow = true;
  bool schema_nf = true;
  bool decomposition = true;
  bool symbolic = true;
  /// Node budget per symbolic solve; exhaustion reports MA604 (unknown),
  /// never a wrong verdict.
  std::size_t symbolic_max_nodes = std::size_t{1} << 22;
};

/// Runs every enabled pass whose input is present. Deterministic: equal
/// inputs yield equal reports. Wall time is recorded as an "analyze"
/// TraceSpan and per-pass counters in the global MetricRegistry.
[[nodiscard]] Report run(const Input& input, const Options& options = {});

// Individual passes, exposed for targeted testing. Each appends to
// `report.diagnostics` honoring `options`, and pushes its PassStats.
void run_shadowing_pass(const Input& input, const Options& options,
                        Report& report);
void run_reachability_pass(const Input& input, const Options& options,
                           Report& report);
void run_dataflow_pass(const Input& input, const Options& options,
                       Report& report);
void run_schema_nf_pass(const Input& input, const Options& options,
                        Report& report);
void run_decomposition_pass(const Input& input, const Options& options,
                            Report& report);
void run_symbolic_pass(const Input& input, const Options& options,
                       Report& report);

namespace detail {

/// Shared per-pass diagnostic sink: severity filter + truncation cap.
class Sink {
 public:
  Sink(std::string pass, const Options& options, Report& report);
  /// Pushes the pass stats line; called once per pass at scope exit.
  ~Sink();
  Sink(const Sink&) = delete;
  Sink& operator=(const Sink&) = delete;

  void mark_ran() noexcept { ran_ = true; }
  [[nodiscard]] bool ran() const noexcept { return ran_; }

  /// True when `severity` passes the report filter (passes use this to
  /// skip computing expensive witnesses for filtered-out lints).
  [[nodiscard]] bool wants(Severity severity) const noexcept;

  void emit(Diagnostic d);

 private:
  std::string pass_;
  const Options& options_;
  Report& report_;
  std::size_t emitted_ = 0;
  bool truncated_ = false;
  bool ran_ = false;
};

/// "ip_dst=0xc0000201/0xffffffff tcp_dst=0x50" rendering of a rule's
/// matches (witness strings).
[[nodiscard]] std::string describe_rule(const dp::RuleView& rule);

}  // namespace detail

}  // namespace maton::analysis

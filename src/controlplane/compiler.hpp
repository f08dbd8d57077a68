// Intent compiler: maps a functional intent onto the rule updates a given
// match-action representation requires, and computes the §2 metrics
// (controllability: updates per intent; monitorability: counters +
// aggregation steps per observation task; atomicity: the inconsistency
// window when updates are not applied atomically).
//
// Two compilation paths exist. The *full-rebuild* reference rebuilds the
// whole program from the service model and diffs it against the previous
// one. The *incremental* path (the default) exploits that every intent
// names the single service it touches: it re-emits only that service's
// rule slice per table — through the same representation descriptor the
// pipeline builder reads (controlplane/representation.hpp) — diffs the
// slice, and patches the program (and the universal table, cell-wise) in
// place. The two paths are differentially tested to be bit-identical
// over randomized churn traces
// (tests/controlplane/test_incremental_compile.cpp).
#pragma once

#include <array>
#include <optional>
#include <unordered_map>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/symbolic/engine.hpp"
#include "controlplane/intent.hpp"
#include "controlplane/representation.hpp"
#include "core/fd_mine.hpp"
#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/build_positions.hpp"
#include "workloads/gwlb.hpp"

namespace maton::cp {

/// Which compilation path a binding uses for intents.
enum class CompileMode {
  /// Delta-scoped: re-emit only the touched service's slice and patch
  /// the program in place; falls back to kFullRebuild per intent when
  /// slice-local diffing would be ambiguous (e.g. duplicate live VIPs).
  kIncremental,
  /// Reference: rebuild the whole program and diff old vs new.
  kFullRebuild,
};

/// Per-binding tally of which path compiled each applied intent, with
/// fallbacks split by cause: VIP collisions whose slices could not be
/// proven disjoint vs slice-validation (provenance) mismatches.
struct IncrementalStats {
  std::size_t hits = 0;       ///< intents compiled by the delta path
  std::size_t fallbacks = 0;  ///< intents demoted to a full rebuild
  std::size_t vip_collision_fallbacks = 0;
  std::size_t slice_validation_fallbacks = 0;
};

/// Whether a binding symbolically verifies each compile: after the
/// initial build and every applied intent, prove the live (possibly
/// patched-in-place) program equivalent to a reference using the
/// decision-diagram engine — drift is caught as a semantic difference,
/// not just a bit difference. The reference is compiled in full once,
/// then kept current by re-lowering, after each intent, only the intent's
/// service's rows in the tables it maps to (one per descriptor stage; a
/// shared table is reassembled from those rows and the other services'
/// rows as the last refresh lowered them), never by the slice patches
/// that maintain the live program. Any edit of a live table gives its
/// rules a new revision (dp::FlatRules), which makes the prover re-key
/// it, so drift anywhere in the live program is refuted.
enum class VerifyMode { kOff, kSymbolic };

/// Tally of post-compile symbolic verifications.
struct VerifyStats {
  std::size_t verified = 0;  ///< proofs of equivalence
  std::size_t failed = 0;    ///< refutations (drift!) — must stay 0
  std::size_t unknown = 0;   ///< solver bailed (budget)
  /// Tables whose diagram the binding's prover reused / folded afresh,
  /// summed over both programs of every proof.
  std::size_t table_hits = 0;
  std::size_t table_misses = 0;
  /// Tables whose content key the prover built (the rest were vouched
  /// for by their revision), summed the same way.
  std::size_t tables_keyed = 0;
};

/// Whether a binding re-runs the static analyzer over the freshly
/// compiled program after every compile (initial build and each applied
/// intent). Reports land in last_analysis(); outcomes are tallied on the
/// maton_cp_analysis_{clean,findings}_total counters.
enum class AnalyzeMode {
  kOff,
  /// Run analysis::run (at warning severity) after every successful
  /// compile, on both the incremental and the full-rebuild path.
  kPostCompile,
};

/// Plan for observing one service's aggregate traffic (§2
/// "Monitorability": 3 counters + controller-side aggregation on the
/// universal table vs a single counter on the normalized pipeline).
struct MonitorPlan {
  std::size_t counters = 0;
  /// Additions the controller performs to aggregate the readings.
  std::size_t aggregation_steps = 0;
};

namespace detail {
/// Buffers of a rule diff, kept so that a warm diff allocates nothing.
struct DiffScratch {
  /// (content hash, index) per new rule, sorted; pairing marks an index.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> keyed;
  std::vector<std::uint32_t> removed;  ///< old rules left unpaired
  std::vector<std::uint32_t> added;    ///< new rules left unpaired
};
}  // namespace detail

/// Binds the gwlb service model to one concrete representation: builds
/// the data-plane program, compiles intents into rule updates, and keeps
/// its internal service model in sync as intents are applied.
class GwlbBinding {
 public:
  GwlbBinding(workloads::Gwlb gwlb, Representation repr,
              CompileMode mode = CompileMode::kIncremental,
              AnalyzeMode analyze = AnalyzeMode::kOff,
              VerifyMode verify = VerifyMode::kOff);

  [[nodiscard]] Representation representation() const noexcept {
    return repr_;
  }
  [[nodiscard]] CompileMode mode() const noexcept { return mode_; }
  [[nodiscard]] AnalyzeMode analyze_mode() const noexcept {
    return analyze_;
  }
  /// Takes effect from the next compile; does not analyze retroactively.
  void set_analyze_mode(AnalyzeMode analyze) noexcept { analyze_ = analyze; }
  /// Report of the most recent post-compile analysis (empty when
  /// AnalyzeMode is kOff or nothing has compiled since it was enabled).
  [[nodiscard]] const analysis::Report& last_analysis() const noexcept {
    return last_analysis_;
  }
  [[nodiscard]] IncrementalStats incremental_stats() const noexcept {
    return inc_stats_;
  }
  [[nodiscard]] VerifyMode verify_mode() const noexcept { return verify_; }
  [[nodiscard]] VerifyStats verify_stats() const noexcept {
    return verify_stats_;
  }
  /// Solver note / counterexample of the most recent non-verified
  /// outcome (empty while every verification proved equivalence).
  [[nodiscard]] const std::string& last_verify_note() const noexcept {
    return last_verify_note_;
  }
  [[nodiscard]] const workloads::Gwlb& gwlb() const noexcept { return gwlb_; }
  [[nodiscard]] const dp::Program& program() const noexcept {
    return program_;
  }

  /// Compiles `intent` into the updates this representation needs and
  /// advances the internal service model. The §2 controllability metric
  /// is the size of the returned vector. When the representation cannot
  /// express the resulting model (kRematch with two services on one VIP
  /// lowers to duplicate match keys), returns the compile error and
  /// leaves the binding unchanged.
  [[nodiscard]] Result<std::vector<dp::RuleUpdate>> compile_intent(
      const Intent& intent);

  /// §2 monitorability: the plan for measuring one service's aggregate
  /// traffic under this representation — one counter per entry the
  /// service holds in the entry stage, summed by the controller.
  [[nodiscard]] MonitorPlan monitor_plan(std::size_t service) const;

  /// The service's rules in the entry table, in program order: the
  /// counters monitor_plan counts. Empty for a removed service.
  [[nodiscard]] dp::FlatRules entry_rules(std::size_t service) const;

  /// Entries that refer to the service's identity (VIP/port): its rows in
  /// every stage whose schema carries ip_dst — the state that can become
  /// inconsistent mid-update. The §2 atomicity argument:
  /// an intent touching k entries has an inconsistency window of k − 1
  /// partially-applied states.
  [[nodiscard]] std::size_t identity_entries(std::size_t service) const;

  /// FDs holding in the *current* universal table, re-mined lazily after
  /// each applied intent (§3's transient dependencies tracked live under
  /// churn). The binding keeps a cross-call PartitionCache: an intent
  /// rewrites a few cells of one or two columns, so the next re-mine
  /// reuses every stripped partition whose columns the intent left
  /// untouched instead of recomputing the world per update. The
  /// incremental path patches the universal table cell-wise precisely so
  /// those fingerprints stay warm.
  [[nodiscard]] const core::FdSet& mined_fds();

  /// The partition cache backing mined_fds(), for reuse diagnostics.
  [[nodiscard]] const core::tane::PartitionCache& partition_cache() const
      noexcept {
    return mine_cache_;
  }

 private:
  /// Test peer that compares the delta-maintained indexes with the ones
  /// a full compile derives.
  friend struct GwlbBindingInternals;

  /// Rebuilds the universal table from the service model.
  void rebuild_universal();
  /// Rebuilds the universal table, then recompiles program_ with its
  /// provenance and indexes. On a compile error only the universal table
  /// has changed, and the error is returned.
  [[nodiscard]] Status rebuild_program();
  void rebuild_provenance();
  /// Rebuilds the O(Δ) lookup structures (slice index, row offsets, VIP
  /// multiset) from provenance_ and the service model. Full-compile only;
  /// the delta path maintains them in place.
  void rebuild_indexes();
  void rebuild_slice_index(std::size_t table);
  /// Writes the live positions (ascending) of `service`'s rules in
  /// `table` into `out`; empty when it holds none there.
  void slice_positions(std::size_t table, std::size_t service,
                       std::vector<std::uint32_t>& out) const;
  /// Erases `service`'s rules at live `positions` (ascending) from
  /// `table`: rules and provenance in one pass each; the slice index
  /// drops the service and records its positions as removed.
  void erase_slice(std::size_t table, std::size_t service,
                   const std::vector<std::uint32_t>& positions);
  void vip_add(std::uint32_t vip, std::size_t service);
  void vip_remove(std::uint32_t vip, std::size_t service);
  /// Runs the analyzer suite over program_ + the universal table and
  /// stores the report; bumps the clean/findings counters.
  void run_post_compile_analysis();
  /// Appends to `out` service `s`'s (state `svc`) rules of descriptor
  /// stage `stage`, lowered through `fields`, in emission order.
  void lower_rows(std::size_t stage, std::span<const dp::FieldId> fields,
                  const workloads::GwlbService& svc, std::size_t s,
                  dp::FlatRules& out) const;
  /// Re-lowers shared stage `stage`'s whole reference table and row map
  /// from the service model, in dp::compile's order of a stage's rules.
  void rebuild_reference_stage(std::size_t stage);
  /// Re-lowers `service`'s rows in the reference_ tables that hold them,
  /// one per descriptor stage, rewriting the rows that changed; a shared
  /// table whose count or priorities changed is rebuilt instead.
  void refresh_reference(std::size_t service);
  /// Where an applied intent's time goes, in ns, per phase.
  struct PhaseHistograms {
    obs::Histogram* delta = nullptr;
    obs::Histogram* refresh = nullptr;
    obs::Histogram* prove = nullptr;
  };
  /// Refreshes reference_ for the service an applied intent touched
  /// (nullopt right after its full compile), then proves the live
  /// program equivalent to it (VerifyMode::kSymbolic) with prover_;
  /// tallies verify_stats_, the maton_cp_symbolic_*_total counters and,
  /// for an intent, its refresh and prove phases into `phases`.
  void run_post_compile_verify(std::optional<std::size_t> touched,
                               const PhaseHistograms* phases = nullptr);

  /// Writes into `out` the lowered, slice-sorted rules service `s` (in
  /// state `svc`) contributes to descriptor stage `stage`; empty when it
  /// contributes none.
  void service_slice(std::size_t stage, const workloads::GwlbService& svc,
                     std::size_t s, dp::FlatRules& out) const;
  /// Goto target of service `s`'s rows in descriptor stage `stage`
  /// (its table in the next stage under StageLink::kGotoPerService).
  [[nodiscard]] std::optional<std::size_t> goto_of(std::size_t stage,
                                                   std::size_t s) const;

  /// Why the most recent try_compile_incremental declined.
  enum class FallbackCause { kVipCollision, kSliceValidation };

  /// The delta path. Returns nullopt when the intent must fall back to
  /// the full rebuild (a VIP collision whose slices could not be proven
  /// disjoint, or a slice-validation mismatch — see last_fallback_cause_);
  /// in that case nothing has been mutated yet.
  [[nodiscard]] std::optional<std::vector<dp::RuleUpdate>>
  try_compile_incremental(std::size_t service,
                          const workloads::GwlbService& old_svc);

  workloads::Gwlb gwlb_;
  Representation repr_;
  CompileMode mode_;
  dp::Program program_;
  /// Attribute→field assignment of the last full compile; single-row
  /// re-lowering in the incremental path resolves against it.
  dp::FieldMap field_map_;
  /// field_map_ resolved once per descriptor stage (dp::resolve_columns):
  /// what service_slice and the provenance cross-check lower through.
  /// Every stage resolves once a compile succeeded (the cross-check
  /// requires it).
  std::vector<Result<std::vector<dp::FieldId>>> stage_fields_;
  /// provenance_[t][i] = service that emitted program_.tables[t].rules[i].
  /// Rebuilt (and validated against the stage reader) on every full
  /// compile, maintained in place by the incremental patcher.
  std::vector<std::vector<std::uint32_t>> provenance_;
  /// Inverse of provenance_: slice_index_[t][service] = ascending
  /// positions of the service's rules in program_.tables[t] as of the
  /// table's last index build, read through slice_removals_[t]
  /// (slice_positions). Lets the delta path extract a slice in O(slice)
  /// instead of scanning the table; untouched by same-shape patches
  /// (positions are stable), not renumbered when a slice is erased (the
  /// removal map records it), rebuilt per table once a quarter of the
  /// table's built rules are gone.
  std::vector<std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>>
      slice_index_;
  /// Per table: the removal map from slice_index_'s build positions to
  /// live positions.
  std::vector<util::BuildPositions> slice_removals_;
  /// row_offsets_[s] = first universal-table row of service s;
  /// suffix-recomputed when a service's slice is removed.
  std::vector<std::size_t> row_offsets_;
  /// Live services per VIP: the delta path's collision precheck in O(1),
  /// and — when a collision exists — the partner set whose slices the
  /// symbolic isolation proof must clear before the patch may proceed.
  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>>
      vip_services_;

  /// The touched table of one descriptor stage on the delta path.
  struct Patch {
    std::size_t table = 0;
    std::vector<std::uint32_t> positions;  ///< ascending, pre-patch
    dp::FlatRules before;  ///< the service's rules there, pre-patch
    dp::FlatRules after;   ///< what the descriptor emits post-intent
  };
  // Scratch of the delta path, kept across intents so that a warm intent
  // reuses it instead of allocating: one patch per descriptor stage, a
  // slice to validate against or prove isolation from, the colliding
  // partners, the diff's buffers and the pre-intent copy of the service.
  std::vector<Patch> patches_;
  dp::FlatRules slice_;
  std::vector<std::uint32_t> partners_;
  detail::DiffScratch diff_;
  workloads::GwlbService old_svc_;
  IncrementalStats inc_stats_;
  FallbackCause last_fallback_cause_ = FallbackCause::kSliceValidation;
  VerifyMode verify_ = VerifyMode::kOff;
  VerifyStats verify_stats_;
  std::string last_verify_note_;
  core::tane::PartitionCache mine_cache_;
  std::optional<core::FdSet> mined_;  // invalidated when universal changes
  AnalyzeMode analyze_ = AnalyzeMode::kOff;
  analysis::Report last_analysis_;
  /// What run_post_compile_verify proves program_ against
  /// (VerifyMode::kSymbolic only): a full compile of the service model at
  /// construction, after which each applied intent re-lowers just its
  /// service's rows of the tables it maps to (refresh_reference). Its
  /// tables come from the stage reader, row lowering and the priority
  /// sort — never from program_, service_slice or the in-place patches
  /// that maintain program_.
  dp::Program reference_;
  /// Attribute→field assignment of reference_'s own full compile.
  dp::FieldMap reference_fields_;
  /// reference_fields_ resolved once per descriptor stage.
  std::vector<Result<std::vector<dp::FieldId>>> reference_stage_fields_;
  /// Where a shared descriptor stage's rows sit in reference_, as
  /// refresh_reference last lowered them. Service s's rows are emission
  /// rows [begin[s], begin[s + 1]) of the table, in service then
  /// emission order; placed[e] is the table position of emission row e.
  struct ReferenceRows {
    std::vector<std::uint32_t> begin;
    std::vector<std::uint32_t> placed;
  };
  /// Per descriptor stage (VerifyMode::kSymbolic only; empty for a
  /// per-service stage).
  std::vector<ReferenceRows> reference_rows_;
  /// Persistent prover of run_post_compile_verify (VerifyMode::kSymbolic
  /// only): successive proofs re-fold only the tables an intent changed.
  std::optional<analysis::symbolic::ProgramProver> prover_;
  /// maton_cp_intent_phase_ns{phase, intent, repr} per Intent
  /// alternative (intent="port|ip|backend|remove", in variant order),
  /// resolved at construction: {phase="delta"} (compiling the updates,
  /// on either path), {phase="refresh"} (refresh_reference) and
  /// {phase="prove"} (the prover's check). The last two are recorded
  /// only under VerifyMode::kSymbolic.
  std::array<PhaseHistograms, std::variant_size_v<Intent>> phases_;
};

/// Minimal update set turning `before` into `after`: per table, each old
/// rule consumes the first unmatched equal new rule (O(n log n) over
/// sorted content hashes); the leftovers pair up as modifies in order,
/// the remainder becomes removes then inserts. Exposed for the
/// pairing-semantics tests and as the reference the incremental slice
/// diff is held to.
[[nodiscard]] std::vector<dp::RuleUpdate> diff_programs(
    const dp::Program& before, const dp::Program& after);

}  // namespace maton::cp

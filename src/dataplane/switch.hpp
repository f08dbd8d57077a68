// Switch models: behavioural stand-ins for the four data planes of the
// paper's evaluation (§5) — OVS, ESwitch, Lagopus and the NoviFlow 2128.
//
// The four differ in how they look a packet up, not in how a flow-mod
// lands: the base SwitchModel owns the installed program, the per-rule
// counters and the one apply_updates loop (mutate the program, carry the
// counters), and each model keeps only its lookup structures current
// through the on_load / on_update / on_updates_applied hooks.
//
// Software models (ESwitch/OVS/Lagopus) do real per-packet work — hash
// probes, trie walks, tuple-space probes — so relative performance
// emerges from genuine code paths; a documented per-packet framework
// overhead constant converts measured classifier time into absolute
// packet rates of the right magnitude (see EXPERIMENTS.md). The hardware
// model is analytic: line-rate forwarding plus a TCAM update-stall model.
#pragma once

#include <atomic>
#include <memory>
#include <span>
#include <string_view>
#include <vector>

#include "dataplane/classifier.hpp"
#include "dataplane/program.hpp"

namespace maton::dp {

/// One control-plane rule update applied to a running switch.
struct RuleUpdate {
  enum class Kind { kInsert, kRemove, kModify };
  Kind kind = Kind::kModify;
  std::size_t table = 0;
  /// Identifies the existing rule by its exact match vector
  /// (kRemove / kModify).
  MatchList target;
  /// The new rule (kInsert / kModify). Owned, like the target: an update
  /// outlives the compile that produced it.
  Rule rule;
};

/// How apply_update_to_program changed the table — what index
/// maintenance (counters, classifiers) the caller still owes.
struct ApplyOutcome {
  enum class Kind {
    kInserted,         // new rule at `index`; later rules shifted up
    kRemoved,          // rule at `index` removed; later rules shifted down
    kModifiedInPlace,  // rule at `index` replaced, position unchanged
    kModifiedMoved,    // rule replaced and re-positioned `index` → `moved_to`
  };
  Kind kind = Kind::kModifiedInPlace;
  std::size_t index = 0;
  std::size_t moved_to = 0;  // kModifiedMoved only
};

/// Applies `update` to a program's table in place — the mutation step of
/// SwitchModel::apply_updates. Returns kNotFound when the target rule
/// does not exist.
/// Delta-scoped: the target is found through the table's lazy match
/// index, a same-priority modify replaces in place, and a priority
/// change repositions one 20-byte ref — no full re-sort. Tables are kept
/// in the compiled order (priority descending, stable), matching what a
/// full `stable_sort` of the legacy path produced. When `outcome` is
/// non-null it receives what happened, so callers can delta-scope their
/// own bookkeeping.
[[nodiscard]] Status apply_update_to_program(
    Program& program, const RuleUpdate& update,
    ApplyOutcome* outcome = nullptr);

/// Per-rule packet counters parallel to a program's tables, with the
/// OpenFlow preservation semantics across rule updates. Owned by
/// SwitchModel. Counts are positional; the ApplyOutcome of
/// apply_update_to_program says how positions moved, so carrying
/// counters across an update is O(Δ) (or O(shift) for structural edits)
/// instead of a match-vector join.
///
/// Sharded per replay queue: the counter array is replicated once per
/// queue with each shard's stride rounded up to whole cache lines, so
/// concurrent queues never write the same line (no bouncing, no atomic
/// RMW — each shard has a single writer and uses plain relaxed
/// load/store increments). Reads merge shards deterministically by
/// folding them in ascending queue-id order; 64-bit addition is
/// commutative and lossless here, so quiesced merged totals are exact
/// and independent of queue interleaving. Structural ops (reset / carry)
/// and merging reads race-free only against bump()s, not against each
/// other — they run on the quiesced control path by contract.
class RuleCounters {
 public:
  /// Re-sizes to match `program` with one shard per queue, zeroing
  /// everything.
  void reset(const Program& program, std::size_t queues = 1);

  [[nodiscard]] std::size_t queues() const noexcept { return queues_; }

  /// Increments rule's counter in `queue`'s shard. Each queue id must
  /// have at most one concurrent writer (the replay queue's thread).
  void bump(std::size_t table, std::size_t rule, std::size_t queue = 0);
  void bump_all(std::span<const MatchedRule> matched,
                std::size_t queue = 0);

  /// Carries the counts across one applied update of `table`: an
  /// inserted rule starts at zero, a removed rule's count is dropped, and
  /// a modified rule keeps its count wherever it lands — OpenFlow modify
  /// inherits the old stats.
  void carry(std::size_t table, const ApplyOutcome& outcome);

  /// Drops the counts at `positions` (strictly ascending, positions
  /// before the removal) of `table`: each shard shifts the table's tail
  /// down in place, so a run of removals costs one pass per shard and
  /// no re-layout.
  void erase(std::size_t table, std::span<const std::size_t> positions);

  /// Merged (all-shard) count for the rule with the given match vector.
  [[nodiscard]] Result<std::uint64_t> read(
      const Program& program, std::size_t table,
      std::span<const FieldMatch> target) const;

 private:
  /// Merged (all-shard) count by position — ascending queue-id fold.
  [[nodiscard]] std::uint64_t merged(std::size_t table,
                                     std::size_t rule) const;
  /// Lays every table out at its current size, zeroing all counts.
  void rebuild_layout();
  /// Grows `table` by a zero count at `pos`, shifting the table's tail
  /// up in every shard; re-lays out every shard when the table has no
  /// spare slot left by earlier removals.
  void insert(std::size_t table, std::size_t pos);
  /// Rotates the count at `from` to `to` in every shard.
  void move(std::size_t table, std::size_t from, std::size_t to);
  [[nodiscard]] std::size_t slot(std::size_t queue, std::size_t table,
                                 std::size_t rule) const noexcept {
    return queue * stride_ + offsets_[table] + rule;
  }

  std::vector<std::size_t> sizes_;    // rules per table
  /// table → flat offset (+ total). A table's slots run to the next
  /// table's offset; removals leave zeroed spare slots at its end.
  std::vector<std::size_t> offsets_;
  std::size_t stride_ = 0;  // per-shard slots, cache-line rounded
  std::size_t queues_ = 1;
  std::vector<std::atomic<std::uint64_t>> counts_;  // queues_ * stride_
};

class SwitchModel {
 public:
  virtual ~SwitchModel() = default;
  SwitchModel(const SwitchModel&) = delete;
  SwitchModel& operator=(const SwitchModel&) = delete;

  /// Installs `program`, zeroes the rule counters (keeping the configured
  /// queue count) and lets the model build its lookup state (on_load).
  [[nodiscard]] Status load(Program program);
  [[nodiscard]] virtual ExecResult process(const FlowKey& key) = 0;

  /// Batched execution on queue 0: results[i] = process(keys[i]), in
  /// order, with identical side effects (rule counters, caches, stats).
  /// Requires results.size() >= keys.size().
  void process_batch(std::span<const FlowKey> keys,
                     std::span<ExecResult> results) {
    process_batch_queue(0, keys, results);
  }

  /// Declares that `queues` replay queues will drive this one instance
  /// concurrently through process_batch_queue — classifiers are shared
  /// read-only, every queue gets private batch-walker scratch, and the
  /// rule counters re-shard per queue (configuring zeroes them).
  /// Returns false when the model cannot share one instance across
  /// queues (OVS mutates its megaflow cache per packet); callers fall
  /// back to per-queue instances. Rule updates must be quiesced
  /// relative to concurrent queue processing.
  [[nodiscard]] virtual bool configure_queues(std::size_t queues);

  /// process_batch bound to one configured queue: identical results,
  /// with counter bumps landing in the queue's private shard. Safe to
  /// call concurrently across distinct queue ids after a successful
  /// configure_queues. The base implementation is the scalar loop on
  /// queue 0; software models override it with stage-hoisted kernels
  /// that amortize dispatch and put many memory accesses in flight.
  virtual void process_batch_queue(std::size_t queue,
                                   std::span<const FlowKey> keys,
                                   std::span<ExecResult> results);

  [[nodiscard]] Status apply_update(const RuleUpdate& update) {
    return apply_updates({&update, 1});
  }

  /// Applies `updates` in order. Each update lands through
  /// apply_update_to_program, its counters carry over
  /// (RuleCounters::carry) and the model sees it in on_update; then
  /// on_updates_applied runs once for the applied updates, so per-table
  /// index maintenance (classifier recompilation, cache teardown) runs
  /// once per batch instead of once per update. A run of consecutive
  /// removals from one table lands as one erase pass over the table and
  /// its counters, with the same result as removing one at a time.
  /// Stops at the first failure; updates already applied stay applied
  /// (the §2 non-atomicity the inconsistency window measures).
  [[nodiscard]] Status apply_updates(std::span<const RuleUpdate> updates);

  [[nodiscard]] virtual std::string_view name() const noexcept = 0;

  /// Fixed per-packet framework cost (I/O, metadata bookkeeping) added to
  /// the measured classifier time when reporting absolute packet rates.
  [[nodiscard]] virtual double per_packet_overhead_ns() const noexcept {
    return 0.0;
  }

  /// Per-rule packet counter (OpenFlow flow stats): packets that matched
  /// the rule identified by its match vector. Counters survive kModify
  /// (the modified rule inherits the old count) and start at zero for
  /// inserts. This is what §2's monitorability discussion reads.
  [[nodiscard]] Result<std::uint64_t> read_rule_counter(
      std::size_t table, const MatchList& target) const {
    return counters_.read(program_, table, target.span());
  }

  /// The installed program with every applied update.
  [[nodiscard]] const Program& program() const noexcept { return program_; }

 protected:
  SwitchModel() = default;

  /// Index maintenance hooks, run on the quiesced control path: on_load
  /// after load installed a program; on_update after each applied update
  /// (program and counters already updated); on_updates_applied once
  /// after an apply_updates call that applied at least one update. A run
  /// of removals reaches on_update after the whole run has landed, one
  /// call per removal from the highest position down, each with the
  /// rule's position before the run.
  virtual void on_load() {}
  virtual void on_update(const RuleUpdate& /*update*/,
                         const ApplyOutcome& /*outcome*/) {}
  virtual void on_updates_applied(
      std::span<const RuleUpdate> /*applied*/) {}

  [[nodiscard]] RuleCounters& counters() noexcept { return counters_; }

 private:
  /// Applies the leading run of removals from one table in `updates`
  /// (updates.front() is a removal) and returns how many landed; sets
  /// `result` when the run stopped at a failing update.
  std::size_t apply_removals(std::span<const RuleUpdate> updates,
                             Status& result);

  Program program_;
  RuleCounters counters_;
};

/// ESwitch-style datapath specialization: every table compiled to the
/// most efficient classifier template its rules admit (§5: exact-match /
/// LPM / tuple-space / linear).
[[nodiscard]] std::unique_ptr<SwitchModel> make_eswitch_model();

/// Lagopus-style generic datapath: tuple-space lookup for every table
/// regardless of structure, plus a large fixed per-packet overhead that
/// dominates either representation (which is why Lagopus is agnostic to
/// normalization in Table 1).
[[nodiscard]] std::unique_ptr<SwitchModel> make_lagopus_model();

/// OVS-style flow-cache datapath: the multi-table pipeline runs only on
/// the slow path; the first packet of each megaflow installs a collapsed
/// single-lookup cache entry, explicitly denormalizing the pipeline (§5).
[[nodiscard]] std::unique_ptr<SwitchModel> make_ovs_model();

struct OvsStats {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t cache_flushes = 0;
};

/// Extended interface of the OVS model, for cache-behaviour tests.
class OvsModelInterface : public SwitchModel {
 public:
  [[nodiscard]] virtual OvsStats stats() const noexcept = 0;
};

/// NoviFlow-2128-style hardware model: analytic line-rate forwarding
/// with per-stage latency and a TCAM update-stall model (drives Fig. 4).
class HwTcamModel final : public SwitchModel {
 public:
  ExecResult process(const FlowKey& key) override;
  [[nodiscard]] std::string_view name() const noexcept override {
    return "noviflow-hw";
  }

  /// 64-byte line rate of the measured port configuration [Mpps].
  [[nodiscard]] double line_rate_mpps() const noexcept { return 10.75; }

  /// Packet latency [µs] for a pipeline of the given depth:
  /// fixed port/fabric cost plus one TCAM stage per table.
  /// Calibrated so depth 1 → 6.4 µs and depth 2 → 8.4 µs (Table 1).
  [[nodiscard]] double latency_us(std::size_t depth) const noexcept {
    return 4.4 + 2.0 * static_cast<double>(depth);
  }

  /// Pipeline stall caused by installing/modifying `entries_touched`
  /// rules in a table currently holding `table_size` entries. Models
  /// per-entry install cost plus TCAM reorganization proportional to the
  /// table size (priority shuffling), the effect behind Fig. 4's 20×
  /// throughput loss.
  [[nodiscard]] double update_stall_seconds(
      std::size_t entries_touched, std::size_t table_size) const noexcept {
    constexpr double kPerEntrySeconds = 59e-6;
    constexpr double kReorgPerExistingEntrySeconds = 7.05e-6;
    return static_cast<double>(entries_touched) *
           (kPerEntrySeconds +
            kReorgPerExistingEntrySeconds * static_cast<double>(table_size));
  }

  /// Effective throughput [Mpps] under `stall_seconds_per_second` of
  /// accumulated update stalls per wall-clock second.
  [[nodiscard]] double throughput_mpps(double stall_seconds_per_second)
      const noexcept {
    const double available = 1.0 - stall_seconds_per_second;
    return line_rate_mpps() * (available < 0.0 ? 0.0 : available);
  }

  [[nodiscard]] std::size_t pipeline_depth() const noexcept;

 private:
  MatchedBuf matched_scratch_;
};

}  // namespace maton::dp

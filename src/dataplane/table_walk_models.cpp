// ESwitch- and Lagopus-style switch models: both walk the table pipeline
// per packet; they differ in how each table's classifier is instantiated
// and in the fixed per-packet framework overhead.
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dataplane/switch.hpp"
#include "obs/metrics.hpp"
#include "util/contract.hpp"

namespace maton::dp {

namespace {

std::uint64_t now_ns() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Common pipeline walker over per-table classifiers.
class TableWalkSwitch : public SwitchModel {
 public:
  TableWalkSwitch() { ensure_scratch(); }

  /// Table-walk models share one instance across replay queues: the
  /// classifiers' lookup paths are const, every queue gets its own
  /// heap-allocated scratch context, and the rule counters re-shard one
  /// shard per queue (zeroing them). Stage metrics are already sharded
  /// atomics. Rule updates must be quiesced relative to concurrent
  /// queue processing (the classifier rebuild is not).
  [[nodiscard]] bool configure_queues(std::size_t queues) override {
    expects(queues > 0, "need at least one replay queue");
    counters().reset(program(), queues);
    ensure_scratch();
    return true;
  }

  ExecResult process(const FlowKey& key) override {
    ExecResult result;
    if (program().tables.empty()) return result;

    FlowKey state = key;
    std::optional<std::size_t> current = program().entry;
    while (current.has_value()) {
      const std::size_t idx = *current;
      expects(idx < program().tables.size(), "jump out of range");
      expects(result.tables_visited <= program().tables.size(),
              "table graph cycle during processing");
      ++result.tables_visited;

      const auto rule_idx = classifiers_[idx]->lookup(state);
      if (!rule_idx.has_value()) {
        stage_metrics_[idx].misses->add();
        result.hit = false;
        result.out_port = 0;
        return result;
      }
      stage_metrics_[idx].hits->add();
      counters().bump(idx, *rule_idx);
      const TableSpec& table = program().tables[idx];
      const RuleView rule = table.rules[*rule_idx];
      for (const Action action : rule.actions) {
        if (action.kind == Action::Kind::kOutput) {
          result.out_port = action.value;
        } else {
          state.set(action.field, action.value);
        }
      }
      current = rule.goto_table.has_value() ? rule.goto_table : table.next;
    }
    result.hit = true;
    return result;
  }

  /// Stage-hoisted batch execution: packets advance through the table
  /// graph grouped by their current table, one lookup_batch dispatch per
  /// occupied table, so per-packet virtual dispatch disappears and the
  /// classifier kernels get whole chunks to prefetch over. Occupied
  /// tables are tracked on a FIFO worklist — a table is visited only when
  /// packets actually sit in its bucket, so deep pipelines never pay an
  /// every-round scan over all tables. Counter bumps are the same
  /// multiset as the scalar path (increments commute), and results are
  /// bit-identical.
  void process_batch_queue(std::size_t queue,
                           std::span<const FlowKey> keys,
                           std::span<ExecResult> results) override {
    expects(queue < scratch_.size(), "replay queue not configured");
    run_batch(queue, *scratch_[queue], keys, results);
  }

 protected:
  void on_load() override {
    auto& registry = obs::MetricRegistry::global();
    const std::string model(name());
    if (batch_chunk_size_ == nullptr) {
      batch_chunk_size_ =
          &registry.histogram("maton_dp_batch_chunk_size", {{"model", model}});
    }
    const std::size_t num_tables = program().tables.size();
    classifiers_.clear();
    classifiers_.reserve(num_tables);
    stage_metrics_.clear();
    stage_metrics_.reserve(num_tables);
    for (std::size_t t = 0; t < num_tables; ++t) {
      const TableSpec& table = program().tables[t];
      classifiers_.push_back(instantiate(table));
      const obs::Labels labels{{"model", model}, {"table", table.name}};
      stage_metrics_.push_back(
          {&registry.counter("maton_dp_table_hits_total", labels),
           &registry.counter("maton_dp_table_misses_total", labels),
           &registry.histogram("maton_dp_table_lookup_ns", labels),
           template_metrics(classifiers_[t]->name())});
    }
    touched_.assign(num_tables, kUntouched);
    touched_ids_.clear();
    ensure_scratch();
  }

  /// Delta-scoped index maintenance: a same-priority modify or a
  /// removal is first offered to the table's classifier (apply_modify /
  /// apply_remove) — when the template can patch its index in place no
  /// rebuild happens at all. Tables whose classifier declines, or that
  /// saw an insert or a re-position, are recompiled once per *touched
  /// table* in on_updates_applied.
  void on_update(const RuleUpdate& update,
                 const ApplyOutcome& outcome) override {
    std::uint8_t& touched = touched_[update.table];
    if (touched == kRebuild) return;  // rebuild already owed
    if (touched == kUntouched) touched_ids_.push_back(update.table);
    const TableSpec& table = program().tables[update.table];
    Classifier& classifier = *classifiers_[update.table];
    const TemplateMetrics& metrics = stage_metrics_[update.table].tmpl;
    bool patched = false;
    if (outcome.kind == ApplyOutcome::Kind::kModifiedInPlace) {
      patched = classifier.apply_modify(table, outcome.index, update.target);
      if (patched) metrics.patched_modify->add();
    } else if (outcome.kind == ApplyOutcome::Kind::kRemoved) {
      patched = classifier.apply_remove(table, outcome.index, update.target);
      if (patched) metrics.patched_remove->add();
    }
    touched = patched ? kPatched : kRebuild;
  }

  /// Rebuilds the tables a decline or a structural edit left owing one;
  /// every step is per touched table.
  void on_updates_applied(std::span<const RuleUpdate> /*applied*/) override {
    for (const std::size_t t : touched_ids_) {
      if (touched_[t] == kRebuild) {
        stage_metrics_[t].tmpl.rebuilds->add();
        classifiers_[t] = instantiate(program().tables[t]);
        // Recompiling can change the chosen classifier template, which
        // is a metric label: take the new template's handles.
        stage_metrics_[t].tmpl = template_metrics(classifiers_[t]->name());
      }
      touched_[t] = kUntouched;
    }
    touched_ids_.clear();
  }

  [[nodiscard]] virtual std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const = 0;

 private:
  /// Handles labelled by the classifier template serving a table
  /// (exact/lpm/tss/linear).
  struct TemplateMetrics {
    /// Chunks dispatched — shows which kernels carry traffic.
    obs::Counter* chunks = nullptr;
    /// Index maintenance: updates patched in place, and
    /// re-instantiations after a decline or a structural edit.
    obs::Counter* patched_modify = nullptr;
    obs::Counter* patched_remove = nullptr;
    obs::Counter* rebuilds = nullptr;
  };

  /// Per-table metric handles, so the packet path records through raw
  /// pointers without touching the registry. The table-labelled ones are
  /// resolved once per load; `tmpl` is copied from the template cache
  /// whenever the table's classifier is (re)built.
  struct StageMetrics {
    obs::Counter* hits = nullptr;
    obs::Counter* misses = nullptr;
    obs::Histogram* lookup_ns = nullptr;
    TemplateMetrics tmpl;
  };

  /// The template's handles, resolved from the registry the first time
  /// this switch serves a table with it and cached for its lifetime.
  [[nodiscard]] TemplateMetrics template_metrics(std::string_view tmpl) {
    for (const auto& [cached, metrics] : templates_) {
      if (cached == tmpl) return metrics;
    }
    auto& registry = obs::MetricRegistry::global();
    const std::string model(name());
    const std::string label(tmpl);
    TemplateMetrics m;
    m.chunks = &registry.counter("maton_dp_classifier_chunks_total",
                                 {{"model", model}, {"template", label}});
    m.patched_modify = &registry.counter(
        "maton_dp_classifier_patches_total",
        {{"model", model}, {"op", "modify"}, {"template", label}});
    m.patched_remove = &registry.counter(
        "maton_dp_classifier_patches_total",
        {{"model", model}, {"op", "remove"}, {"template", label}});
    m.rebuilds = &registry.counter("maton_dp_classifier_rebuilds_total",
                                   {{"model", model}, {"template", label}});
    templates_.emplace_back(label, m);
    return m;
  }

  /// Batch-walker scratch, one context per configured replay queue and
  /// reused across process_batch_queue calls so the steady-state path
  /// performs no allocations. Each context is heap-allocated separately
  /// so two queues' scratch never shares cache lines.
  struct QueueScratch {
    std::vector<FlowKey> states;
    std::vector<std::vector<std::uint32_t>> buckets;  // per-table frontier
    std::vector<std::uint32_t> moving;
    std::vector<FlowKey> gather;
    std::vector<std::size_t> rule_out;
    std::vector<std::uint32_t> worklist;  // FIFO of occupied buckets
    std::vector<std::uint8_t> queued;     // table ∈ worklist[head..)
  };

  void ensure_scratch() {
    scratch_.resize(counters().queues());
    for (auto& s : scratch_) {
      if (!s) s = std::make_unique<QueueScratch>();
    }
  }

  /// The stage-hoisted batch walker (see process_batch doc), bound to
  /// one queue's scratch and counter shard.
  void run_batch(std::size_t queue, QueueScratch& s,
                 std::span<const FlowKey> keys,
                 std::span<ExecResult> results) {
    expects(results.size() >= keys.size(),
            "process_batch result span too small");
    const std::size_t num_tables = program().tables.size();
    for (std::size_t i = 0; i < keys.size(); ++i) results[i] = ExecResult{};
    if (num_tables == 0 || keys.empty()) return;

    expects(program().entry < num_tables, "program entry out of range");
    // Stages classify straight out of the caller's keys until the
    // batch's first set-field action copies them into the states buffer.
    // Nothing has been rewritten before that point, so the copy is exact.
    const FlowKey* state_base = keys.data();
    s.buckets.resize(num_tables);
    for (auto& bucket : s.buckets) bucket.clear();
    for (std::size_t i = 0; i < keys.size(); ++i) {
      s.buckets[program().entry].push_back(static_cast<std::uint32_t>(i));
    }
    s.worklist.clear();
    s.queued.assign(num_tables, 0);
    s.worklist.push_back(static_cast<std::uint32_t>(program().entry));
    s.queued[program().entry] = 1;

    // FIFO over occupied buckets. The pipeline graph is acyclic, so a
    // table re-enqueued while another drains terminates; each pop visits
    // a non-empty bucket exactly once.
    for (std::size_t head = 0; head < s.worklist.size(); ++head) {
      const std::size_t t = s.worklist[head];
      s.queued[t] = 0;
      {
        s.moving.swap(s.buckets[t]);
        s.buckets[t].clear();

        // Skip the gather copy when the bucket is a contiguous run of
        // packet indices (the common case: whole batches advance through
        // a linear pipeline together) — the classifier can read the
        // states array in place.
        bool contiguous = true;
        for (std::size_t m = 1; m < s.moving.size(); ++m) {
          if (s.moving[m] != s.moving[m - 1] + 1) {
            contiguous = false;
            break;
          }
        }
        std::span<const FlowKey> stage_keys;
        if (contiguous) {
          stage_keys = {state_base + s.moving.front(), s.moving.size()};
        } else {
          s.gather.clear();
          s.gather.reserve(s.moving.size());
          for (const std::uint32_t p : s.moving) {
            s.gather.push_back(state_base[p]);
          }
          stage_keys = s.gather;
        }
        s.rule_out.resize(s.moving.size());
        // Telemetry per stage dispatch, not per packet: two clock reads
        // and a handful of relaxed adds amortized over the whole chunk.
        std::uint64_t lookup_start = 0;
        if constexpr (obs::kEnabled) lookup_start = now_ns();
        classifiers_[t]->lookup_batch(stage_keys, s.rule_out);
        if constexpr (obs::kEnabled) {
          stage_metrics_[t].lookup_ns->observe(
              static_cast<double>(now_ns() - lookup_start));
          stage_metrics_[t].tmpl.chunks->add();
          batch_chunk_size_->observe(static_cast<double>(s.moving.size()));
        }
        std::uint64_t stage_hits = 0;
        std::uint64_t stage_misses = 0;

        const TableSpec& table = program().tables[t];
        for (std::size_t m = 0; m < s.moving.size(); ++m) {
          const std::uint32_t p = s.moving[m];
          ExecResult& result = results[p];
          expects(result.tables_visited <= num_tables,
                  "table graph cycle during batch processing");
          ++result.tables_visited;
          if (s.rule_out[m] == kNoRule) {
            ++stage_misses;
            result.hit = false;
            result.out_port = 0;
            continue;  // miss: packet leaves the pipeline
          }
          ++stage_hits;
          counters().bump(t, s.rule_out[m], queue);
          const RuleView rule = table.rules[s.rule_out[m]];
          for (const Action action : rule.actions) {
            if (action.kind == Action::Kind::kOutput) {
              result.out_port = action.value;
            } else {
              if (state_base == keys.data()) {
                s.states.assign(keys.begin(), keys.end());
                state_base = s.states.data();
              }
              s.states[p].set(action.field, action.value);
            }
          }
          const std::optional<std::size_t> next =
              rule.goto_table.has_value() ? rule.goto_table : table.next;
          if (next.has_value()) {
            expects(*next < num_tables, "jump out of range");
            s.buckets[*next].push_back(p);
            if (s.queued[*next] == 0) {
              s.queued[*next] = 1;
              s.worklist.push_back(static_cast<std::uint32_t>(*next));
            }
          } else {
            result.hit = true;
          }
        }
        if (stage_hits != 0) stage_metrics_[t].hits->add(stage_hits);
        if (stage_misses != 0) stage_metrics_[t].misses->add(stage_misses);
        s.moving.clear();
      }
    }
  }

  std::vector<std::unique_ptr<Classifier>> classifiers_;
  std::vector<StageMetrics> stage_metrics_;
  /// (template name, handles) for every template this switch has served;
  /// at most one entry per classifier template.
  std::vector<std::pair<std::string, TemplateMetrics>> templates_;
  obs::Histogram* batch_chunk_size_ = nullptr;

  std::vector<std::unique_ptr<QueueScratch>> scratch_;
  /// Per-table index maintenance owed by the current apply_updates call;
  /// all kUntouched between calls. touched_ids_ lists the tables that are
  /// not, in first-touch order.
  enum : std::uint8_t { kUntouched, kPatched, kRebuild };
  std::vector<std::uint8_t> touched_;
  std::vector<std::size_t> touched_ids_;
};

class ESwitchModel final : public TableWalkSwitch {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "eswitch";
  }
  /// ESwitch is a lean DPDK datapath; classifier work dominates.
  [[nodiscard]] double per_packet_overhead_ns() const noexcept override {
    return 45.0;
  }

 protected:
  std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const override {
    // Datapath specialization from ESwitch's template inventory.
    return select_classifier_eswitch(table);
  }
};

class LagopusModel final : public TableWalkSwitch {
 public:
  [[nodiscard]] std::string_view name() const noexcept override {
    return "lagopus";
  }
  /// Lagopus spends most of a packet's budget in generic framework code
  /// (dispatch, metadata copies); that fixed cost is why Table 1 shows it
  /// agnostic to the representation.
  [[nodiscard]] double per_packet_overhead_ns() const noexcept override {
    return 660.0;
  }

 protected:
  std::unique_ptr<Classifier> instantiate(
      const TableSpec& table) const override {
    // One generic wildcard lookup path for everything.
    return make_tss(table);
  }
};

}  // namespace

std::unique_ptr<SwitchModel> make_eswitch_model() {
  return std::make_unique<ESwitchModel>();
}

std::unique_ptr<SwitchModel> make_lagopus_model() {
  return std::make_unique<LagopusModel>();
}

}  // namespace maton::dp

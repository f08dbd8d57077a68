#include <algorithm>

#include "dataplane/switch.hpp"
#include "util/contract.hpp"

namespace maton::dp {

Status SwitchModel::load(Program program) {
  program_ = std::move(program);
  counters_.reset(program_, counters_.queues());
  on_load();
  return Status::ok();
}

bool SwitchModel::configure_queues(std::size_t queues) {
  return queues == 1;
}

void SwitchModel::process_batch_queue(std::size_t queue,
                                      std::span<const FlowKey> keys,
                                      std::span<ExecResult> results) {
  expects(queue == 0, "model supports a single replay queue");
  expects(results.size() >= keys.size(),
          "process_batch result span too small");
  for (std::size_t i = 0; i < keys.size(); ++i) {
    results[i] = process(keys[i]);
  }
}

Status SwitchModel::apply_updates(std::span<const RuleUpdate> updates) {
  Status result = Status::ok();
  std::size_t applied = 0;
  for (const RuleUpdate& update : updates) {
    ApplyOutcome outcome;
    result = apply_update_to_program(program_, update, &outcome);
    if (!result.is_ok()) break;
    counters_.carry(update.table, outcome);
    on_update(update, outcome);
    ++applied;
  }
  if (applied != 0) on_updates_applied(updates.first(applied));
  return result;
}

Status apply_update_to_program(Program& program, const RuleUpdate& update,
                               ApplyOutcome* outcome) {
  if (update.table >= program.tables.size()) {
    return invalid_argument("update targets a non-existent table");
  }
  TableSpec& table = program.tables[update.table];
  ApplyOutcome result;

  switch (update.kind) {
    case RuleUpdate::Kind::kInsert: {
      result.kind = ApplyOutcome::Kind::kInserted;
      result.index = table.rules.insert_sorted(update.rule);
      break;
    }
    case RuleUpdate::Kind::kRemove: {
      const std::size_t pos = table.rules.find_by_match(update.target);
      if (pos == FlatRules::kNpos) {
        return not_found("rule to remove not present in table " +
                         table.name);
      }
      table.rules.erase(pos);
      result.kind = ApplyOutcome::Kind::kRemoved;
      result.index = pos;
      break;
    }
    case RuleUpdate::Kind::kModify: {
      const std::size_t pos = table.rules.find_by_match(update.target);
      if (pos == FlatRules::kNpos) {
        return not_found("rule to modify not present in table " +
                         table.name);
      }
      const std::uint32_t old_priority = table.rules.priority_of(pos);
      table.rules.replace(pos, update.rule);
      if (update.rule.priority == old_priority) {
        result.kind = ApplyOutcome::Kind::kModifiedInPlace;
        result.index = pos;
      } else {
        result.kind = ApplyOutcome::Kind::kModifiedMoved;
        result.index = pos;
        result.moved_to = table.rules.reposition(pos);
      }
      break;
    }
  }
  if (outcome != nullptr) *outcome = result;
  return Status::ok();
}

namespace {

/// Counters per cache line; shard strides round up to a multiple so no
/// two queues' shards share a line.
constexpr std::size_t kCountersPerLine = 64 / sizeof(std::uint64_t);

}  // namespace

void RuleCounters::rebuild_layout() {
  offsets_.assign(1, 0);
  for (const std::size_t s : sizes_) offsets_.push_back(offsets_.back() + s);
  stride_ = (offsets_.back() + kCountersPerLine - 1) / kCountersPerLine *
            kCountersPerLine;
  // Vector move-assign swaps buffers without moving elements, so the
  // non-movable atomics are only ever value-initialized (to zero).
  counts_ = std::vector<std::atomic<std::uint64_t>>(stride_ * queues_);
}

void RuleCounters::reset(const Program& program, std::size_t queues) {
  expects(queues > 0, "counters need at least one shard");
  queues_ = queues;
  sizes_.clear();
  sizes_.reserve(program.tables.size());
  for (const TableSpec& table : program.tables) {
    sizes_.push_back(table.rules.size());
  }
  rebuild_layout();
}

void RuleCounters::bump(std::size_t table, std::size_t rule,
                        std::size_t queue) {
  expects(queue < queues_ && table < sizes_.size() && rule < sizes_[table],
          "counter index out of range");
  // Single writer per shard: a plain relaxed load/store increment is
  // race-free and skips the lock-prefixed RMW an fetch_add would pay.
  std::atomic<std::uint64_t>& c = counts_[slot(queue, table, rule)];
  c.store(c.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
}

void RuleCounters::bump_all(std::span<const MatchedRule> matched,
                            std::size_t queue) {
  for (const MatchedRule& m : matched) bump(m.table, m.rule, queue);
}

void RuleCounters::carry(std::size_t table, const ApplyOutcome& outcome) {
  switch (outcome.kind) {
    case ApplyOutcome::Kind::kInserted:
      resize(table, outcome.index, /*grow=*/true);
      break;
    case ApplyOutcome::Kind::kRemoved:
      resize(table, outcome.index, /*grow=*/false);
      break;
    case ApplyOutcome::Kind::kModifiedInPlace:
      break;  // position unchanged; the rule inherits its count
    case ApplyOutcome::Kind::kModifiedMoved:
      move(table, outcome.index, outcome.moved_to);
      break;
  }
}

void RuleCounters::resize(std::size_t table, std::size_t pos, bool grow) {
  expects(table < sizes_.size() &&
              (grow ? pos <= sizes_[table] : pos < sizes_[table]),
          "counter resize out of range");
  // Structural edits run on the quiesced control path: snapshot, re-lay
  // out, copy back with the table's tail shifted by one.
  std::vector<std::uint64_t> old(counts_.size());
  for (std::size_t i = 0; i < old.size(); ++i) {
    old[i] = counts_[i].load(std::memory_order_relaxed);
  }
  const std::vector<std::size_t> old_offsets = offsets_;
  const std::size_t old_stride = stride_;
  if (grow) {
    ++sizes_[table];
  } else {
    --sizes_[table];
  }
  rebuild_layout();
  for (std::size_t q = 0; q < queues_; ++q) {
    for (std::size_t t = 0; t < sizes_.size(); ++t) {
      const std::size_t old_n = old_offsets[t + 1] - old_offsets[t];
      for (std::size_t r = 0; r < old_n; ++r) {
        std::size_t to = r;
        if (t == table && r >= pos) {
          if (!grow && r == pos) continue;  // the removed rule's count
          to = grow ? r + 1 : r - 1;
        }
        counts_[slot(q, t, to)].store(
            old[q * old_stride + old_offsets[t] + r],
            std::memory_order_relaxed);
      }
    }
  }
}

void RuleCounters::move(std::size_t table, std::size_t from,
                        std::size_t to) {
  expects(table < sizes_.size() && from < sizes_[table] &&
              to < sizes_[table],
          "counter move out of range");
  if (from == to) return;
  // Same size, same layout: rotate [from..to] within each shard.
  for (std::size_t q = 0; q < queues_; ++q) {
    const std::uint64_t moved =
        counts_[slot(q, table, from)].load(std::memory_order_relaxed);
    if (from < to) {
      for (std::size_t r = from; r < to; ++r) {
        counts_[slot(q, table, r)].store(
            counts_[slot(q, table, r + 1)].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    } else {
      for (std::size_t r = from; r > to; --r) {
        counts_[slot(q, table, r)].store(
            counts_[slot(q, table, r - 1)].load(std::memory_order_relaxed),
            std::memory_order_relaxed);
      }
    }
    counts_[slot(q, table, to)].store(moved, std::memory_order_relaxed);
  }
}

std::uint64_t RuleCounters::merged(std::size_t table,
                                   std::size_t rule) const {
  expects(table < sizes_.size() && rule < sizes_[table],
          "counter index out of range");
  // Deterministic merge: fold shards in ascending queue-id order.
  std::uint64_t total = 0;
  for (std::size_t q = 0; q < queues_; ++q) {
    total += counts_[slot(q, table, rule)].load(std::memory_order_relaxed);
  }
  return total;
}

Result<std::uint64_t> RuleCounters::read(
    const Program& program, std::size_t table,
    const std::vector<FieldMatch>& target) const {
  if (table >= program.tables.size()) {
    return invalid_argument("counter read targets a non-existent table");
  }
  const std::size_t pos = program.tables[table].rules.find_by_match(target);
  if (pos == FlatRules::kNpos) {
    return not_found("no rule with the given match vector in table " +
                     program.tables[table].name);
  }
  return merged(table, pos);
}

ExecResult HwTcamModel::process(const FlowKey& key) {
  // The hardware forwards at line rate regardless of representation; the
  // model only needs functional correctness (and flow stats) here.
  const ExecResult result =
      execute_reference(program(), key, &matched_scratch_);
  counters().bump_all(matched_scratch_.span());
  return result;
}

std::size_t HwTcamModel::pipeline_depth() const noexcept {
  // Longest table chain from the entry (tables form a DAG by
  // construction; compiled pipelines are validated acyclic).
  std::vector<int> memo(program().tables.size(), -1);
  auto depth = [&](auto&& self, std::size_t i) -> std::size_t {
    if (memo[i] >= 0) return static_cast<std::size_t>(memo[i]);
    memo[i] = 0;  // break accidental cycles defensively
    const TableSpec& t = program().tables[i];
    std::size_t best = 0;
    if (t.next.has_value()) best = self(self, *t.next);
    for (const auto r : t.rules) {
      if (r.goto_table.has_value()) {
        best = std::max(best, self(self, *r.goto_table));
      }
    }
    memo[i] = static_cast<int>(best + 1);
    return best + 1;
  };
  if (program().tables.empty()) return 0;
  return depth(depth, program().entry);
}

}  // namespace maton::dp

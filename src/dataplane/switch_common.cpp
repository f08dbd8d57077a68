#include <algorithm>

#include "dataplane/switch.hpp"
#include "util/contract.hpp"
#include "util/sorted_erase.hpp"

namespace maton::dp {

Status SwitchModel::load(Program program) {
  program_ = std::move(program);
  // Set-up pays for the match indexes, not the first update.
  for (const TableSpec& table : program_.tables) {
    table.rules.build_match_index();
  }
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
  while (applied < updates.size() && result.is_ok()) {
    const RuleUpdate& update = updates[applied];
    if (update.kind == RuleUpdate::Kind::kRemove) {
      applied += apply_removals(updates.subspan(applied), result);
      continue;
    }
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

std::size_t SwitchModel::apply_removals(std::span<const RuleUpdate> updates,
                                        Status& result) {
  const std::size_t table = updates.front().table;
  if (table >= program_.tables.size()) {
    result = invalid_argument("update targets a non-existent table");
    return 0;
  }
  TableSpec& spec = program_.tables[table];
  // Every removal of the run is looked up before any lands. A removal
  // keeps the survivors' order, so a target's first match stays its
  // first match after earlier removals — unless an earlier removal of
  // the run took that very rule (two removals of one duplicated match
  // vector); the run ends before such a removal, and the next run
  // looks it up again.
  std::vector<std::size_t> found;  // positions in update order
  std::size_t run = 0;
  for (; run < updates.size(); ++run) {
    const RuleUpdate& update = updates[run];
    if (update.kind != RuleUpdate::Kind::kRemove || update.table != table) {
      break;
    }
    const std::size_t pos = spec.rules.find_by_match(update.target);
    if (pos == FlatRules::kNpos) {
      result = not_found("rule to remove not present in table " + spec.name);
      break;
    }
    found.push_back(pos);
  }
  std::vector<std::size_t> order(found.size());  // run indices by position
  for (std::size_t k = 0; k < order.size(); ++k) order[k] = k;
  std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
    return found[a] != found[b] ? found[a] < found[b] : a < b;
  });
  for (std::size_t k = 1; k < order.size(); ++k) {
    if (found[order[k]] == found[order[k - 1]]) {
      run = std::min(run, order[k]);
      result = Status::ok();  // the failure lies beyond the shortened run
    }
  }
  std::erase_if(order, [&](std::size_t k) { return k >= run; });
  std::vector<std::size_t> positions(order.size());
  for (std::size_t k = 0; k < order.size(); ++k) {
    positions[k] = found[order[k]];
  }
  spec.rules.erase(positions);
  counters_.erase(table, positions);
  // Highest position first: each removal's index is then also its
  // position once the removals above it have landed, which is what a
  // one-at-a-time loop would report.
  for (std::size_t k = order.size(); k-- > 0;) {
    on_update(updates[order[k]],
              {ApplyOutcome::Kind::kRemoved, positions[k], 0});
  }
  return run;
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
  if (update.kind != RuleUpdate::Kind::kRemove) {
    // `fields` stays the union of the table's matched fields: templates
    // index a table over them, so a field left out would go unread.
    for (const FieldMatch m : update.rule.matches) {
      if (std::find(table.fields.begin(), table.fields.end(), m.field) ==
          table.fields.end()) {
        table.fields.push_back(m.field);
      }
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
      insert(table, outcome.index);
      break;
    case ApplyOutcome::Kind::kRemoved:
      erase(table, {&outcome.index, 1});
      break;
    case ApplyOutcome::Kind::kModifiedInPlace:
      break;  // position unchanged; the rule inherits its count
    case ApplyOutcome::Kind::kModifiedMoved:
      move(table, outcome.index, outcome.moved_to);
      break;
  }
}

void RuleCounters::erase(std::size_t table,
                         std::span<const std::size_t> positions) {
  if (positions.empty()) return;
  expects(table < sizes_.size() && positions.back() < sizes_[table],
          "counter erase out of range");
  const std::size_t n = sizes_[table];
  for (std::size_t q = 0; q < queues_; ++q) {
    std::size_t kept = erase_sorted(
        n, positions, [&](std::size_t from, std::size_t to) {
          counts_[slot(q, table, to)].store(
              counts_[slot(q, table, from)].load(std::memory_order_relaxed),
              std::memory_order_relaxed);
        });
    // The freed slots become the table's zeroed spare capacity.
    for (; kept < n; ++kept) {
      counts_[slot(q, table, kept)].store(0, std::memory_order_relaxed);
    }
  }
  sizes_[table] = n - positions.size();
}

void RuleCounters::insert(std::size_t table, std::size_t pos) {
  expects(table < sizes_.size() && pos <= sizes_[table],
          "counter insert out of range");
  if (offsets_[table] + sizes_[table] == offsets_[table + 1]) {
    // No spare slot: snapshot, re-lay out at the grown size, copy back.
    std::vector<std::uint64_t> old(counts_.size());
    for (std::size_t i = 0; i < old.size(); ++i) {
      old[i] = counts_[i].load(std::memory_order_relaxed);
    }
    const std::vector<std::size_t> old_offsets = offsets_;
    const std::size_t old_stride = stride_;
    ++sizes_[table];  // lay the table out one slot larger
    rebuild_layout();
    --sizes_[table];
    for (std::size_t q = 0; q < queues_; ++q) {
      for (std::size_t t = 0; t < sizes_.size(); ++t) {
        for (std::size_t r = 0; r < sizes_[t]; ++r) {
          counts_[slot(q, t, r)].store(
              old[q * old_stride + old_offsets[t] + r],
              std::memory_order_relaxed);
        }
      }
    }
  }
  // Shift the tail up one slot into the (zeroed) spare slot.
  for (std::size_t q = 0; q < queues_; ++q) {
    for (std::size_t r = sizes_[table]; r > pos; --r) {
      counts_[slot(q, table, r)].store(
          counts_[slot(q, table, r - 1)].load(std::memory_order_relaxed),
          std::memory_order_relaxed);
    }
    counts_[slot(q, table, pos)].store(0, std::memory_order_relaxed);
  }
  ++sizes_[table];
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

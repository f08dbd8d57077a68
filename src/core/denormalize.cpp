#include "core/denormalize.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <vector>

#include "util/contract.hpp"

namespace maton::core {

namespace {

/// Symbolic execution state along one pipeline path.
struct PathState {
  /// Constraints the path imposes on the incoming packet's fields.
  std::map<std::string, Value> constraints;
  /// Fields written by actions so far (shadowing packet constraints).
  std::map<std::string, Value> written;
  /// Observable (non-metadata) action bindings, last-writer-wins.
  std::map<std::string, Value> actions;
};

struct Collector {
  const Pipeline& pipeline;
  const FlattenOptions& opts;
  std::vector<PathState> complete;
  /// First-appearance order of packet-constraint fields and action
  /// fields, with the attribute metadata that introduced them.
  std::vector<Attribute> match_attrs;
  std::vector<Attribute> action_attrs;
  Status failure = Status::ok();

  void note_match_attr(const Attribute& attr) {
    for (const Attribute& a : match_attrs) {
      if (a.name == attr.name) return;
    }
    Attribute copy = attr;
    copy.kind = AttrKind::kMatch;
    match_attrs.push_back(std::move(copy));
  }
  void note_action_attr(const Attribute& attr) {
    for (const Attribute& a : action_attrs) {
      if (a.name == attr.name) return;
    }
    Attribute copy = attr;
    copy.kind = AttrKind::kAction;
    action_attrs.push_back(std::move(copy));
  }

  bool walk(std::size_t stage_idx, PathState state, std::size_t depth) {
    if (!failure.is_ok()) return false;
    if (depth > pipeline.num_stages()) {
      failure = internal_error("pipeline cycle while flattening");
      return false;
    }
    const Stage& stage = pipeline.stage(stage_idx);
    const Schema& schema = stage.table.schema();

    for (std::size_t r = 0; r < stage.table.num_rows(); ++r) {
      PathState next = state;
      bool feasible = true;

      for (std::size_t c : schema.match_set()) {
        const Attribute& attr = schema.at(c);
        const Value v = stage.table.at(r, c);
        // A field some earlier stage wrote is checked against the
        // written value (metadata joins, rewrites) and does not
        // constrain the packet.
        if (const auto w = next.written.find(attr.name);
            w != next.written.end()) {
          if (w->second != v) {
            feasible = false;
            break;
          }
          continue;
        }
        if (const auto cst = next.constraints.find(attr.name);
            cst != next.constraints.end()) {
          if (cst->second != v) {
            feasible = false;
            break;
          }
          continue;
        }
        next.constraints.emplace(attr.name, v);
        note_match_attr(attr);
      }
      if (!feasible) continue;

      for (std::size_t c : schema.action_set()) {
        const Attribute& attr = schema.at(c);
        const Value v = stage.table.at(r, c);
        next.written[attr.name] = v;
        if (!is_metadata_name(attr.name)) {
          next.actions[attr.name] = v;
          note_action_attr(attr);
        }
      }

      const std::optional<std::size_t> target =
          stage.uses_goto() ? std::optional{stage.goto_targets[r]}
                            : stage.next;
      if (target.has_value()) {
        if (!walk(*target, std::move(next), depth + 1)) return false;
      } else {
        complete.push_back(std::move(next));
        if (complete.size() > opts.max_rows) {
          failure = invalid_argument(
              "flatten exceeded max_rows; pipeline expands beyond the "
              "configured universal-table size");
          return false;
        }
      }
    }
    return true;
  }
};

}  // namespace

Result<Table> flatten(const Pipeline& pipeline, const FlattenOptions& opts) {
  if (pipeline.num_stages() == 0) {
    return failed_precondition("cannot flatten an empty pipeline");
  }
  if (Status s = pipeline.validate(); !s.is_ok()) return s;

  Collector collector{pipeline, opts, {}, {}, {}, Status::ok()};
  collector.walk(pipeline.entry(), PathState{}, 0);
  if (!collector.failure.is_ok()) return collector.failure;

  // Every feasible path must constrain exactly the same field set,
  // otherwise there is no uniform universal schema.
  for (const PathState& path : collector.complete) {
    if (path.constraints.size() != collector.match_attrs.size()) {
      return failed_precondition(
          "pipeline paths constrain different match-field sets; no "
          "uniform universal table exists");
    }
    if (path.actions.size() != collector.action_attrs.size()) {
      return failed_precondition(
          "pipeline paths apply different action sets; no uniform "
          "universal table exists");
    }
  }

  Schema schema;
  for (const Attribute& a : collector.match_attrs) schema.add(a);
  for (const Attribute& a : collector.action_attrs) schema.add(a);
  Table out(opts.name, std::move(schema));

  std::set<Row> seen;
  for (const PathState& path : collector.complete) {
    Row row;
    row.reserve(out.num_cols());
    for (const Attribute& a : collector.match_attrs) {
      row.push_back(path.constraints.at(a.name));
    }
    for (const Attribute& a : collector.action_attrs) {
      row.push_back(path.actions.at(a.name));
    }
    if (seen.insert(row).second) out.add_row(row);
  }

  if (!out.is_order_independent()) {
    return failed_precondition(
        "flattened entries have duplicate match keys; the pipeline is "
        "not expressible as a 1NF universal table");
  }
  return out;
}

}  // namespace maton::core

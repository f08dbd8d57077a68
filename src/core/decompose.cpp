#include "core/decompose.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/contract.hpp"

namespace maton::core {

std::string_view to_string(JoinKind kind) noexcept {
  switch (kind) {
    case JoinKind::kGoto: return "goto";
    case JoinKind::kMetadata: return "metadata";
    case JoinKind::kRematch: return "rematch";
  }
  return "unknown";
}

namespace {

struct VecHash {
  std::size_t operator()(const std::vector<Value>& vals) const noexcept {
    std::uint64_t h = 1469598103934665603ULL;
    for (Value v : vals) {
      h ^= v;
      h *= 1099511628211ULL;
    }
    return static_cast<std::size_t>(h);
  }
};

/// Groups table rows by their values over `cols` (first-appearance order).
struct Grouping {
  std::vector<std::size_t> row_group;            // row index → group id
  std::vector<std::size_t> group_representative; // group id → first row
};

Grouping group_by(const Table& table, const AttrSet& cols) {
  Grouping g;
  g.row_group.resize(table.num_rows());
  std::unordered_map<std::vector<Value>, std::size_t, VecHash> ids;
  for (std::size_t i = 0; i < table.num_rows(); ++i) {
    std::vector<Value> key;
    key.reserve(cols.size());
    for (std::size_t c : cols) key.push_back(table.at(i, c));
    const auto [it, inserted] = ids.emplace(std::move(key), ids.size());
    if (inserted) g.group_representative.push_back(i);
    g.row_group[i] = it->second;
  }
  return g;
}

/// Picks a metadata attribute name not already present in `schema`.
std::string fresh_meta_name(const Schema& schema, const std::string& base) {
  for (std::size_t k = 0;; ++k) {
    std::string name = base + std::to_string(k);
    if (!schema.find(name).has_value()) return name;
  }
}

/// Builds a table whose columns are `cols` of `source` (ascending order),
/// one row per group, taking values from the group representative row.
Table per_group_table(const Table& source, const AttrSet& cols,
                      const Grouping& grouping, std::string name) {
  Table out(std::move(name), source.schema().project(cols, nullptr));
  for (std::size_t rep : grouping.group_representative) {
    Row row;
    row.reserve(cols.size());
    for (std::size_t c : cols) row.push_back(source.at(rep, c));
    out.add_row(row);
  }
  return out;
}

/// Builds a table over `cols` (ascending) plus a trailing group column,
/// with one row per distinct (cols-part, group) combination.
Table residual_table_with_group(const Table& source, const AttrSet& cols,
                                const Grouping& grouping,
                                const Attribute& group_attr,
                                std::string name) {
  Schema schema = source.schema().project(cols, nullptr);
  schema.add(group_attr);
  Table out(std::move(name), std::move(schema));
  std::unordered_map<std::vector<Value>, bool, VecHash> seen;
  for (std::size_t i = 0; i < source.num_rows(); ++i) {
    Row row;
    row.reserve(cols.size() + 1);
    for (std::size_t c : cols) row.push_back(source.at(i, c));
    row.push_back(static_cast<Value>(grouping.row_group[i]));
    if (seen.emplace(row, true).second) out.add_row(row);
  }
  return out;
}

/// Order-independence check with a Fig. 3-flavoured diagnostic.
Status check_stage_tables(const Pipeline& pipeline, const Table& original,
                          const Fd& fd) {
  for (std::size_t i = 0; i < pipeline.num_stages(); ++i) {
    const Table& t = pipeline.stage(i).table;
    if (!t.is_order_independent()) {
      return failed_precondition(
          "decomposition along " + to_string(fd, original.schema()) +
          " yields a sub-table (" + t.name() +
          ") that is not order-independent; dependencies whose left-hand "
          "side contains actions and whose right-hand side includes match "
          "fields cannot be decomposed with sequential join abstractions "
          "(cf. Fig. 3 of the paper)");
    }
  }
  return Status::ok();
}

}  // namespace

Result<Decomposition> decompose_on_fd(const Table& table, const Fd& fd,
                                      const DecomposeOptions& opts) {
  const Schema& schema = table.schema();
  const AttrSet universe = schema.all();

  if (!fd.lhs.subset_of(universe) || !fd.rhs.subset_of(universe)) {
    return invalid_argument("dependency refers to columns outside the table");
  }
  if (fd.trivial()) {
    return failed_precondition("cannot decompose along a trivial dependency");
  }
  if (!table.is_order_independent()) {
    return failed_precondition("table " + table.name() +
                               " is not in 1NF (duplicate match keys)");
  }
  if (!fd_holds(table, fd)) {
    return failed_precondition("dependency " + to_string(fd, schema) +
                               " does not hold in table " + table.name());
  }

  const AttrSet x = fd.lhs;
  const AttrSet y = fd.rhs - fd.lhs;
  const AttrSet z = (universe - x) - y;
  const AttrSet matches = schema.match_set();

  const bool x_all_match = x.subset_of(matches);
  const bool x_all_action = !x.intersects(matches);
  if (!x_all_match && !x_all_action) {
    return unimplemented(
        "decomposition with a mixed match/action left-hand side (" +
        schema.names(x) + ") is not defined by the framework");
  }
  if (x.empty()) {
    return failed_precondition(
        "constant columns are factored with factor_constants(), not by "
        "FD decomposition");
  }
  if (opts.join == JoinKind::kRematch && !x_all_match) {
    return failed_precondition(
        "the rematch join can only re-match header fields; " +
        schema.names(x) + " contains actions");
  }

  const Grouping grouping = group_by(table, x);
  const std::size_t num_groups = grouping.group_representative.size();

  Pipeline pipeline;
  std::string created_meta;
  const std::string base_name = table.name().empty() ? "T" : table.name();

  if (x_all_match) {
    // T_XY runs first: it can match X directly.
    switch (opts.join) {
      case JoinKind::kMetadata: {
        const std::string meta = fresh_meta_name(schema, opts.meta_base);
        created_meta = meta;
        Table fd_table = per_group_table(table, x | y, grouping,
                                         base_name + ".fd");
        {
          Schema s = fd_table.schema();
          // Rebuild with the metadata action appended.
          s.add_action(meta, ValueCodec::kPlain, 16);
          Table with_meta(fd_table.name(), std::move(s));
          for (std::size_t g = 0; g < num_groups; ++g) {
            Row row = fd_table.row(g);
            row.push_back(static_cast<Value>(g));
            with_meta.add_row(row);
          }
          fd_table = std::move(with_meta);
        }
        Table residual = residual_table_with_group(
            table, z, grouping,
            Attribute{meta, AttrKind::kMatch, ValueCodec::kPlain, 16},
            base_name + ".res");
        const std::size_t first = pipeline.add_stage(
            {std::move(fd_table), {}, std::nullopt});
        const std::size_t second =
            pipeline.add_stage({std::move(residual), {}, std::nullopt});
        pipeline.stage(first).next = second;
        pipeline.set_entry(first);
        break;
      }
      case JoinKind::kRematch: {
        Table fd_table =
            per_group_table(table, x | y, grouping, base_name + ".fd");
        Table residual = table.project(x | z, base_name + ".res");
        const std::size_t first =
            pipeline.add_stage({std::move(fd_table), {}, std::nullopt});
        const std::size_t second =
            pipeline.add_stage({std::move(residual), {}, std::nullopt});
        pipeline.stage(first).next = second;
        pipeline.set_entry(first);
        break;
      }
      case JoinKind::kGoto: {
        Table fd_table =
            per_group_table(table, x | y, grouping, base_name + ".fd");
        const std::size_t first =
            pipeline.add_stage({std::move(fd_table), {}, std::nullopt});
        std::vector<std::size_t> targets(num_groups);
        for (std::size_t g = 0; g < num_groups; ++g) {
          // Residual rows of group g, projected onto Z.
          Table residual(base_name + ".g" + std::to_string(g),
                         schema.project(z, nullptr));
          std::unordered_map<std::vector<Value>, bool, VecHash> seen;
          for (std::size_t i = 0; i < table.num_rows(); ++i) {
            if (grouping.row_group[i] != g) continue;
            Row row;
            row.reserve(z.size());
            for (std::size_t c : z) row.push_back(table.at(i, c));
            if (seen.emplace(row, true).second) residual.add_row(row);
          }
          targets[g] =
              pipeline.add_stage({std::move(residual), {}, std::nullopt});
        }
        pipeline.stage(first).goto_targets = std::move(targets);
        pipeline.set_entry(first);
        break;
      }
    }
  } else {
    // X consists of actions: the residual table runs first, computes the
    // X-group from the packet's header fields, and forwards it; the FD
    // table becomes a group-table-like second stage.
    switch (opts.join) {
      case JoinKind::kMetadata: {
        const std::string meta = fresh_meta_name(schema, opts.meta_base);
        created_meta = meta;
        Table residual = residual_table_with_group(
            table, z, grouping,
            Attribute{meta, AttrKind::kAction, ValueCodec::kPlain, 16},
            base_name + ".res");
        // FD table: meta match column plus the X∪Y columns with their
        // original kinds (Y match fields keep being matched here).
        Schema fd_schema;
        fd_schema.add_match(meta, ValueCodec::kPlain, 16);
        std::vector<std::size_t> old_cols;
        for (std::size_t c : x | y) {
          fd_schema.add(schema.at(c));
          old_cols.push_back(c);
        }
        Table fd_table(base_name + ".fd", std::move(fd_schema));
        for (std::size_t g = 0; g < num_groups; ++g) {
          Row row;
          row.reserve(old_cols.size() + 1);
          row.push_back(static_cast<Value>(g));
          const std::size_t rep = grouping.group_representative[g];
          for (std::size_t c : old_cols) row.push_back(table.at(rep, c));
          fd_table.add_row(row);
        }
        const std::size_t first =
            pipeline.add_stage({std::move(residual), {}, std::nullopt});
        const std::size_t second =
            pipeline.add_stage({std::move(fd_table), {}, std::nullopt});
        pipeline.stage(first).next = second;
        pipeline.set_entry(first);
        break;
      }
      case JoinKind::kGoto: {
        // One row per distinct Z-part, each jumping to its X-group stage.
        // Each Z-part must map to exactly one X-group, otherwise the jump
        // is ambiguous — the goto-join flavour of the Fig. 3 problem.
        Table res(base_name + ".res", schema.project(z, nullptr));
        std::vector<std::size_t> res_targets;
        std::unordered_map<std::vector<Value>, std::size_t, VecHash> seen;
        std::vector<std::size_t> res_groups;
        for (std::size_t i = 0; i < table.num_rows(); ++i) {
          Row row;
          row.reserve(z.size());
          for (std::size_t c : z) row.push_back(table.at(i, c));
          const auto [it, inserted] =
              seen.emplace(row, grouping.row_group[i]);
          if (inserted) {
            res.add_row(row);
            res_groups.push_back(grouping.row_group[i]);
          } else if (it->second != grouping.row_group[i]) {
            return failed_precondition(
                "decomposition along " + to_string(fd, schema) +
                " with the goto join is ambiguous: one residual entry "
                "would need to jump to several group tables (cf. Fig. 3 "
                "of the paper)");
          }
        }
        const std::size_t first =
            pipeline.add_stage({std::move(res), {}, std::nullopt});
        // One single-entry "group table" per X-group (the OpenFlow
        // group-table shape the paper points out below Fig. 2b).
        std::vector<std::size_t> group_stage(num_groups);
        for (std::size_t g = 0; g < num_groups; ++g) {
          Table group_table(base_name + ".g" + std::to_string(g),
                            schema.project(x | y, nullptr));
          Row row;
          row.reserve((x | y).size());
          const std::size_t rep = grouping.group_representative[g];
          for (std::size_t c : x | y) row.push_back(table.at(rep, c));
          group_table.add_row(row);
          group_stage[g] =
              pipeline.add_stage({std::move(group_table), {}, std::nullopt});
        }
        res_targets.reserve(res_groups.size());
        for (std::size_t g : res_groups) res_targets.push_back(group_stage[g]);
        pipeline.stage(first).goto_targets = std::move(res_targets);
        pipeline.set_entry(first);
        break;
      }
      case JoinKind::kRematch:
        ensures(false, "unreachable: rematch with action LHS rejected above");
        break;
    }
  }

  if (Status s = check_stage_tables(pipeline, table, fd); !s.is_ok()) {
    return s;
  }
  if (Status s = pipeline.validate(); !s.is_ok()) {
    return s;
  }
  Decomposition result{std::move(pipeline), fd, opts.join, created_meta, {}};
  if (!created_meta.empty()) {
    for (std::size_t c : x) {
      result.meta_source_names.push_back(schema.at(c).name);
    }
  }
  return result;
}

AttrSet constant_columns(const Table& table) {
  AttrSet result;
  if (table.empty()) return result;
  for (std::size_t c = 0; c < table.num_cols(); ++c) {
    const Value first = table.at(0, c);
    bool constant = true;
    for (std::size_t i = 1; i < table.num_rows(); ++i) {
      if (table.at(i, c) != first) {
        constant = false;
        break;
      }
    }
    if (constant) result.insert(c);
  }
  return result;
}

Result<Pipeline> factor_constants(const Table& table) {
  if (table.num_rows() < 2) {
    return failed_precondition(
        "constant factoring needs at least two rows to be meaningful");
  }
  const AttrSet constants = constant_columns(table);
  if (constants.empty()) {
    return failed_precondition("table " + table.name() +
                               " has no constant columns");
  }
  if (constants == table.schema().all()) {
    return failed_precondition(
        "every column is constant; the table is a single fact and cannot "
        "be factored further");
  }

  const std::string base_name = table.name().empty() ? "T" : table.name();
  Table constant_part = table.project(constants, base_name + ".const");
  ensures(constant_part.num_rows() == 1,
          "constant columns must project to a single row");
  Table rest = table.project(table.schema().all() - constants,
                             base_name + ".rest");

  // Cartesian product, realized as an always-visited stage. The product
  // is commutative (§3); we place the constant stage first by convention.
  Pipeline pipeline;
  const std::size_t first =
      pipeline.add_stage({std::move(constant_part), {}, std::nullopt});
  const std::size_t second =
      pipeline.add_stage({std::move(rest), {}, std::nullopt});
  pipeline.stage(first).next = second;
  pipeline.set_entry(first);

  if (Status s = pipeline.validate(); !s.is_ok()) return s;
  return pipeline;
}

}  // namespace maton::core

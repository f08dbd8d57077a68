#include "core/join.hpp"

#include <algorithm>
#include <unordered_map>

#include "util/contract.hpp"

namespace maton::core {

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

}  // namespace

Table natural_join(const Table& left, const Table& right, std::string name) {
  const Schema& ls = left.schema();
  const Schema& rs = right.schema();

  // Shared attribute names and the right-only columns.
  std::vector<std::pair<std::size_t, std::size_t>> shared;  // (lcol, rcol)
  std::vector<std::size_t> right_only;
  for (std::size_t rc = 0; rc < rs.size(); ++rc) {
    if (const auto lc = ls.find(rs.at(rc).name)) {
      shared.push_back({*lc, rc});
    } else {
      right_only.push_back(rc);
    }
  }

  Schema schema;
  for (const Attribute& a : ls.attributes()) schema.add(a);
  for (std::size_t rc : right_only) schema.add(rs.at(rc));
  Table out(name.empty() ? left.name() + "*" + right.name()
                         : std::move(name),
            std::move(schema));

  // Hash right rows by their shared-column key.
  std::unordered_map<std::vector<Value>, std::vector<std::size_t>, VecHash>
      index;
  for (std::size_t r = 0; r < right.num_rows(); ++r) {
    std::vector<Value> key;
    key.reserve(shared.size());
    for (const auto& [lc, rc] : shared) key.push_back(right.at(r, rc));
    index[std::move(key)].push_back(r);
  }

  for (std::size_t l = 0; l < left.num_rows(); ++l) {
    std::vector<Value> key;
    key.reserve(shared.size());
    for (const auto& [lc, rc] : shared) key.push_back(left.at(l, lc));
    const auto it = index.find(key);
    if (it == index.end()) continue;
    for (std::size_t r : it->second) {
      Row row = left.row(l);
      for (std::size_t rc : right_only) row.push_back(right.at(r, rc));
      out.add_row(row);
    }
  }
  return out;
}

HeathSplit heath_split(const Table& table, const Fd& fd) {
  const AttrSet universe = table.schema().all();
  expects(fd.lhs.subset_of(universe) && fd.rhs.subset_of(universe),
          "dependency refers to columns outside the table");
  const AttrSet xy = fd.lhs | fd.rhs;
  const AttrSet xz = universe - (fd.rhs - fd.lhs);
  return {table.project(xy, table.name() + ".xy"),
          table.project(xz, table.name() + ".xz")};
}

bool same_relation(const Table& a, const Table& b) {
  if (a.schema() != b.schema()) return false;
  if (a.num_rows() != b.num_rows()) return false;
  std::unordered_map<std::vector<Value>, int, VecHash> counts;
  Row scratch;
  for (std::size_t r = 0; r < a.num_rows(); ++r) {
    a.copy_row_into(r, scratch);
    ++counts[scratch];
  }
  for (std::size_t r = 0; r < b.num_rows(); ++r) {
    b.copy_row_into(r, scratch);
    const auto it = counts.find(scratch);
    if (it == counts.end() || it->second == 0) return false;
    --it->second;
  }
  return true;
}

bool jd_holds(const Table& table, std::span<const AttrSet> components) {
  expects(!components.empty(), "join dependency needs components");
  AttrSet covered;
  for (const AttrSet& c : components) covered |= c;
  expects(covered == table.schema().all(),
          "join-dependency components must cover the schema");

  Table joined = table.project(components[0]);
  for (std::size_t i = 1; i < components.size(); ++i) {
    joined = natural_join(joined, table.project(components[i]));
  }
  // Reorder to the original column order and compare as sets.
  Table reordered(table.name(), table.schema());
  std::vector<std::size_t> order;
  order.reserve(table.schema().size());
  for (const Attribute& attr : table.schema().attributes()) {
    order.push_back(joined.schema().index_of(attr.name));
  }
  std::unordered_map<std::vector<Value>, bool, VecHash> seen;
  for (const RowView r : joined.rows()) {
    Row row;
    row.reserve(order.size());
    for (std::size_t c : order) row.push_back(r[c]);
    if (seen.emplace(row, true).second) reordered.add_row(row);
  }
  Table original_set(table.name(), table.schema());
  std::unordered_map<std::vector<Value>, bool, VecHash> seen2;
  Row scratch;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    table.copy_row_into(r, scratch);
    if (seen2.emplace(scratch, true).second) original_set.add_row(scratch);
  }
  return same_relation(original_set, reordered);
}

bool is_lossless_split(const Table& table, const Fd& fd) {
  const HeathSplit split = heath_split(table, fd);
  Table joined = natural_join(split.t_xz, split.t_xy);
  // Reorder the joined columns back to the original schema order before
  // comparing (natural_join puts xz's columns first).
  AttrSet cols;
  std::vector<std::size_t> order(table.schema().size());
  for (std::size_t c = 0; c < table.schema().size(); ++c) {
    order[c] = joined.schema().index_of(table.schema().at(c).name);
    cols.insert(order[c]);
  }
  Table reordered(table.name(), table.schema());
  for (const RowView r : joined.rows()) {
    Row row;
    row.reserve(order.size());
    for (std::size_t c : order) row.push_back(r[c]);
    reordered.add_row(row);
  }
  // Projection dedup may have merged duplicates; compare as sets.
  Row scratch;
  Table original_set(table.name(), table.schema());
  {
    std::unordered_map<std::vector<Value>, bool, VecHash> seen;
    for (std::size_t r = 0; r < table.num_rows(); ++r) {
      table.copy_row_into(r, scratch);
      if (seen.emplace(scratch, true).second) original_set.add_row(scratch);
    }
  }
  Table joined_set(table.name(), table.schema());
  {
    std::unordered_map<std::vector<Value>, bool, VecHash> seen;
    for (std::size_t r = 0; r < reordered.num_rows(); ++r) {
      reordered.copy_row_into(r, scratch);
      if (seen.emplace(scratch, true).second) joined_set.add_row(scratch);
    }
  }
  return same_relation(original_set, joined_set);
}

}  // namespace maton::core

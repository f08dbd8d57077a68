#include "core/attr.hpp"

#include <algorithm>

#include "util/contract.hpp"

namespace maton::core {

std::string_view to_string(AttrKind kind) noexcept {
  switch (kind) {
    case AttrKind::kMatch: return "match";
    case AttrKind::kAction: return "action";
  }
  return "unknown";
}

std::string_view to_string(ValueCodec codec) noexcept {
  switch (codec) {
    case ValueCodec::kPlain: return "plain";
    case ValueCodec::kIpv4: return "ipv4";
    case ValueCodec::kIpv4Prefix: return "ipv4-prefix";
    case ValueCodec::kMac: return "mac";
    case ValueCodec::kPort: return "port";
  }
  return "unknown";
}

std::size_t Schema::add(Attribute attr) {
  expects(!attr.name.empty(), "attribute name must be non-empty");
  // Messages are built only on failure: a successful add allocates none.
  if (find(attr.name).has_value()) {
    expects(false, "duplicate attribute name in schema: " + attr.name);
  }
  expects(attrs_.size() < AttrSet::kCapacity,
          "schema exceeds the supported number of columns");
  attrs_.push_back(std::move(attr));
  return attrs_.size() - 1;
}

std::size_t Schema::add_match(std::string name, ValueCodec codec,
                              unsigned width_bits) {
  return add({std::move(name), AttrKind::kMatch, codec, width_bits});
}

std::size_t Schema::add_action(std::string name, ValueCodec codec,
                               unsigned width_bits) {
  return add({std::move(name), AttrKind::kAction, codec, width_bits});
}

const Attribute& Schema::at(std::size_t col) const {
  expects(col < attrs_.size(), "schema column index out of range");
  return attrs_[col];
}

std::optional<std::size_t> Schema::find(std::string_view name) const {
  const auto it = std::find_if(
      attrs_.begin(), attrs_.end(),
      [&](const Attribute& a) { return a.name == name; });
  if (it == attrs_.end()) return std::nullopt;
  return static_cast<std::size_t>(it - attrs_.begin());
}

std::size_t Schema::index_of(std::string_view name) const {
  const auto idx = find(name);
  if (!idx.has_value()) {
    expects(false, "unknown attribute: " + std::string(name));
  }
  return *idx;
}

AttrSet Schema::match_set() const {
  AttrSet s;
  for (std::size_t c = 0; c < attrs_.size(); ++c) {
    if (attrs_[c].kind == AttrKind::kMatch) s.insert(c);
  }
  return s;
}

AttrSet Schema::action_set() const {
  AttrSet s;
  for (std::size_t c = 0; c < attrs_.size(); ++c) {
    if (attrs_[c].kind == AttrKind::kAction) s.insert(c);
  }
  return s;
}

Schema Schema::project(const AttrSet& cols,
                       std::vector<std::size_t>* old_cols) const {
  expects(cols.subset_of(all()), "projection columns outside schema");
  Schema out;
  if (old_cols != nullptr) old_cols->clear();
  for (std::size_t c : cols) {
    out.add(attrs_[c]);
    if (old_cols != nullptr) old_cols->push_back(c);
  }
  return out;
}

std::string Schema::names(const AttrSet& cols) const {
  std::string out;
  bool first = true;
  for (std::size_t c : cols) {
    if (!first) out += ", ";
    out += at(c).name;
    first = false;
  }
  return out;
}

}  // namespace maton::core

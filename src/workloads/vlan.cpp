#include "workloads/vlan.hpp"

namespace maton::workloads {

using core::AttrSet;
using core::Row;
using core::Schema;
using core::Table;
using core::ValueCodec;

Table make_vlan_example() {
  Schema schema;
  schema.add_match("in_port", ValueCodec::kPort, 16);
  schema.add_match("vlan", ValueCodec::kPlain, 12);
  schema.add_action("out", ValueCodec::kPort, 16);

  Table table("vlan.universal", std::move(schema));
  table.add_row(Row{1, 1, 1});
  table.add_row(Row{1, 2, 2});
  table.add_row(Row{2, 1, 1});
  table.add_row(Row{3, 1, 3});
  return table;
}

core::Fd vlan_action_to_match_fd() {
  return {AttrSet::single(kVlanOut), AttrSet::single(kVlanVlan)};
}

}  // namespace maton::workloads

#include "workloads/l3fwd.hpp"

#include <set>

#include "util/contract.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace maton::workloads {

using core::AttrSet;
using core::Row;
using core::Schema;
using core::Table;
using core::Value;
using core::ValueCodec;

namespace {

constexpr Value kEthIpv4 = 0x0800;
constexpr Value kTtlDecrement = 1;

Schema universal_schema() {
  Schema schema;
  schema.add_match("eth_type", ValueCodec::kPlain, 16);
  schema.add_match("ip_dst", ValueCodec::kIpv4Prefix, 32);
  schema.add_action("mod_ttl", ValueCodec::kPlain, 8);
  schema.add_action("mod_smac", ValueCodec::kMac, 48);
  schema.add_action("mod_dmac", ValueCodec::kMac, 48);
  schema.add_action("out", ValueCodec::kPort, 16);
  return schema;
}

core::FdSet model_dependencies() {
  core::FdSet fds;
  fds.add(AttrSet::single(kL3ModDmac),
          AttrSet{kL3ModTtl, kL3ModSmac, kL3Out});
  fds.add(AttrSet::single(kL3Out), AttrSet::single(kL3ModSmac));
  // Constants: determined by the empty set.
  fds.add(AttrSet{}, AttrSet{kL3EthType, kL3ModTtl});
  return fds;
}

constexpr Value prefix_token(std::uint32_t addr, unsigned len) {
  return (static_cast<Value>(addr) << 8) | len;
}

constexpr Value port_smac(std::size_t port) {
  return 0x02'00'00'00'00'00ULL | (static_cast<Value>(port) << 8);
}

constexpr Value nexthop_dmac(std::size_t hop) {
  return 0x06'00'00'00'00'00ULL | (static_cast<Value>(hop) << 8);
}

}  // namespace

L3Fwd make_l3fwd(const L3Config& config) {
  expects(config.num_prefixes > 0, "l3fwd needs at least one prefix");
  expects(config.num_nexthops > 0 &&
              config.num_nexthops <= config.num_prefixes,
          "next-hop count must be in [1, num_prefixes]");
  expects(config.num_ports > 0 && config.num_ports <= config.num_nexthops,
          "port count must be in [1, num_nexthops]");

  Rng rng(config.seed);
  L3Fwd l3;
  l3.universal = Table("l3.universal", universal_schema());
  l3.model_fds = model_dependencies();

  std::set<std::uint32_t> used;
  for (std::size_t p = 0; p < config.num_prefixes; ++p) {
    // Disjoint /24s out of 10.0.0.0/8.
    std::uint32_t base;
    do {
      base = ipv4(10, static_cast<unsigned>(rng.uniform(0, 255)),
                  static_cast<unsigned>(rng.uniform(0, 255)), 0);
    } while (!used.insert(base).second);

    // Ensure every next-hop is used at least once, then spread randomly;
    // next-hop h sits on port h % num_ports.
    const std::size_t hop =
        p < config.num_nexthops ? p : rng.index(config.num_nexthops);
    const std::size_t port = hop % config.num_ports;
    l3.universal.add_row(Row{kEthIpv4, prefix_token(base, 24), kTtlDecrement,
                          port_smac(port), nexthop_dmac(hop),
                          static_cast<Value>(port + 1)});
  }
  return l3;
}

L3Fwd make_paper_l3_example() {
  L3Fwd l3;
  l3.universal = Table("l3.universal", universal_schema());
  l3.model_fds = model_dependencies();

  const Value p1 = prefix_token(ipv4(10, 1, 0, 0), 16);
  const Value p2 = prefix_token(ipv4(10, 2, 0, 0), 16);
  const Value p3 = prefix_token(ipv4(10, 3, 0, 0), 16);
  const Value p4 = prefix_token(ipv4(10, 4, 0, 0), 16);

  const Value d1 = nexthop_dmac(1);
  const Value d2 = nexthop_dmac(2);
  const Value d3 = nexthop_dmac(3);
  const Value smac_port1 = port_smac(1);
  const Value smac_port2 = port_smac(2);

  // P1, P4 → D1 (group 1); P2 → D2 (group 2); P3 → D3 (group 3).
  // Groups 1 and 2 leave on port 1 (same source MAC), group 3 on port 2.
  l3.universal.add_row(Row{kEthIpv4, p1, kTtlDecrement, smac_port1, d1, 1});
  l3.universal.add_row(Row{kEthIpv4, p2, kTtlDecrement, smac_port1, d2, 1});
  l3.universal.add_row(Row{kEthIpv4, p3, kTtlDecrement, smac_port2, d3, 2});
  l3.universal.add_row(Row{kEthIpv4, p4, kTtlDecrement, smac_port1, d1, 1});
  return l3;
}

}  // namespace maton::workloads

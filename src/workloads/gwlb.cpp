#include "workloads/gwlb.hpp"

#include <bit>
#include <set>

#include "util/contract.hpp"
#include "util/format.hpp"
#include "util/rng.hpp"

namespace maton::workloads {

using core::Schema;
using core::Table;
using core::Value;
using core::ValueCodec;

namespace {

/// Packs an IPv4 prefix into the exact-match token the core layer uses.
constexpr Value prefix_token(std::uint32_t addr, unsigned len) {
  return (static_cast<Value>(addr) << 8) | len;
}

}  // namespace

Gwlb assemble(std::vector<GwlbService> services) {
  Gwlb gwlb;
  gwlb.services = std::move(services);
  gwlb.universal = Table("gwlb.universal", gwlb_universal_schema());
  std::size_t total_rows = 0;
  for (const GwlbService& svc : gwlb.services) {
    total_rows += svc.src_prefixes.size();
  }
  gwlb.universal.reserve_rows(total_rows);
  for (const GwlbService& svc : gwlb.services) {
    for (std::size_t b = 0; b < svc.src_prefixes.size(); ++b) {
      gwlb.universal.add_row(gwlb_universal_row(svc, b));
    }
  }
  gwlb.model_fds.add(core::AttrSet::single(kGwlbIpDst),
                     core::AttrSet::single(kGwlbTcpDst));
  return gwlb;
}

Schema gwlb_universal_schema() {
  Schema schema;
  schema.add_match("ip_src", ValueCodec::kIpv4Prefix, 32);
  schema.add_match("ip_dst", ValueCodec::kIpv4, 32);
  schema.add_match("tcp_dst", ValueCodec::kPort, 16);
  schema.add_action("out", ValueCodec::kPort, 16);
  return schema;
}

Gwlb make_gwlb(const GwlbConfig& config) {
  expects(config.num_services > 0, "gwlb needs at least one service");
  expects(config.num_backends > 0 &&
              std::has_single_bit(config.num_backends),
          "gwlb backend count must be a power of two");

  Rng rng(config.seed);
  const unsigned split_len =
      static_cast<unsigned>(std::countr_zero(config.num_backends));

  // The randomized 198.18.0.0/16 draw below has only 256*254 = 65024
  // distinct VIPs; rejection sampling degenerates (and then livelocks)
  // as the fleet approaches that. Past half the space, switch to a
  // dense deterministic allocation over 10.0.0.0/8 instead. Small
  // fleets keep the exact historical draw sequence, so every seeded
  // instance used by tests and recorded benchmarks is unchanged.
  const bool dense_vips = config.num_services > 32000;

  std::set<std::uint32_t> used_vips;
  std::vector<GwlbService> services;
  services.reserve(config.num_services);
  std::uint64_t next_vm = 1;
  for (std::size_t s = 0; s < config.num_services; ++s) {
    GwlbService svc;
    if (dense_vips) {
      svc.vip = ipv4(10, 0, 0, 0) + static_cast<std::uint32_t>(s) + 1;
    } else {
      // Unique public VIP in 198.18.0.0/15 (benchmark address space).
      do {
        svc.vip = ipv4(198, 18, static_cast<unsigned>(rng.uniform(0, 255)),
                       static_cast<unsigned>(rng.uniform(1, 254)));
      } while (!used_vips.insert(svc.vip).second);
    }
    svc.port = static_cast<std::uint16_t>(rng.uniform(1, 65535));

    for (std::size_t b = 0; b < config.num_backends; ++b) {
      const std::uint32_t base =
          split_len == 0
              ? 0
              : static_cast<std::uint32_t>(b) << (32 - split_len);
      svc.src_prefixes.push_back(prefix_token(base, split_len));
      svc.backends.push_back(next_vm++);
    }
    services.push_back(std::move(svc));
  }
  return assemble(std::move(services));
}

Gwlb make_paper_example() {
  std::vector<GwlbService> services(3);

  // Tenant 1: web service at 192.0.2.1:80, two equal backends.
  services[0].vip = ipv4(192, 0, 2, 1);
  services[0].port = 80;
  services[0].src_prefixes = {prefix_token(0x00000000, 1),
                              prefix_token(0x80000000, 1)};
  services[0].backends = {1, 2};  // vm1, vm2

  // Tenant 2: HTTPS at 192.0.2.2:443, three backends in proportion 1:1:2.
  services[1].vip = ipv4(192, 0, 2, 2);
  services[1].port = 443;
  services[1].src_prefixes = {prefix_token(0x00000000, 2),
                              prefix_token(0x40000000, 2),
                              prefix_token(0x80000000, 1)};
  services[1].backends = {3, 4, 5};  // vm3, vm4, vm5

  // Tenant 3: SSH at 192.0.2.3:22, a single backend (no split).
  services[2].vip = ipv4(192, 0, 2, 3);
  services[2].port = 22;
  services[2].src_prefixes = {prefix_token(0x00000000, 0)};
  services[2].backends = {6};  // vm6

  return assemble(std::move(services));
}

}  // namespace maton::workloads

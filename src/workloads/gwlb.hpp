// The cloud access-gateway & load-balancer workload of Fig. 1 (§2) and of
// the evaluation (§5: N = 20 random services, M = 8 backends each).
//
// Routes tenants' services, addressed by public VIP:port pairs, to the
// backend VMs running the workload; load is split across backends by
// disjoint source-IP prefixes. Emits the service model, its universal
// single-table representation and the model-level dependency set (ip_dst
// → tcp_dst: "a service lives on exactly one port of its VIP"). The
// decompositions of Fig. 1b–d are described as data in
// controlplane/representation.hpp.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "core/fd.hpp"
#include "core/table.hpp"

namespace maton::workloads {

struct GwlbConfig {
  std::size_t num_services = 20;
  /// Backends per service; must be a power of two (equal-weight split by
  /// source prefixes of length log2(M)).
  std::size_t num_backends = 8;
  std::uint64_t seed = 1;
};

/// One tenant service: a VIP:port pair load-balanced over backends.
struct GwlbService {
  std::uint32_t vip = 0;
  std::uint16_t port = 0;
  /// Source-prefix tokens ((addr << 8) | prefix_len) splitting the load.
  std::vector<std::uint64_t> src_prefixes;
  /// Output port (VM) per backend, parallel to src_prefixes.
  std::vector<std::uint64_t> backends;
};

struct Gwlb {
  std::vector<GwlbService> services;
  /// Fig. 1a: the universal table over (ip_src, ip_dst, tcp_dst | out).
  core::Table universal;
  /// Model dependency: ip_dst → tcp_dst (each VIP hosts one service).
  core::FdSet model_fds;
};

/// Column order of the universal gwlb table.
inline constexpr std::size_t kGwlbIpSrc = 0;
inline constexpr std::size_t kGwlbIpDst = 1;
inline constexpr std::size_t kGwlbTcpDst = 2;
inline constexpr std::size_t kGwlbOut = 3;
inline constexpr std::size_t kGwlbColumns = 4;

/// The instance over `services`: their universal table, in service and
/// backend order, and the model dependency.
[[nodiscard]] Gwlb assemble(std::vector<GwlbService> services);

/// Randomized instance with the given shape (§5 uses 20 services × 8
/// backends).
[[nodiscard]] Gwlb make_gwlb(const GwlbConfig& config);

/// The exact six-entry instance of Fig. 1a: three tenants at
/// 192.0.2.1:80, 192.0.2.2:443 and 192.0.2.3:22 with 2, 3 (weights
/// 1:1:2) and 1 backends.
[[nodiscard]] Gwlb make_paper_example();

[[nodiscard]] core::Schema gwlb_universal_schema();

/// Universal-table row of backend `b` of a service:
/// {src_prefix, vip, port, backend}, in kGwlb* column order.
[[nodiscard]] inline std::array<core::Value, kGwlbColumns> gwlb_universal_row(
    const GwlbService& svc, std::size_t b) {
  return {svc.src_prefixes[b], svc.vip, svc.port, svc.backends[b]};
}

}  // namespace maton::workloads

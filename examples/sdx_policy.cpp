// The appendix SDX use case: why the announcement/outbound/inbound split
// is *beyond* functional-dependency normalization (a join dependency),
// how the naive pipeline breaks, and how the Fig. 5c metadata encoding
// repairs it.
//
// Run: ./build/examples/sdx_policy
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/fd_mine.hpp"
#include "workloads/sdx.hpp"

using namespace maton;

int main() {
  const workloads::Sdx sdx = workloads::make_sdx_example();
  std::cout << "collapsed SDX policy (Fig. 5a):\n"
            << sdx.universal.to_string() << "\n";

  // FDs cannot explain the split: nothing short of the full match key
  // determines the egress router.
  std::cout << "does ip_dst determine out? "
            << (core::fd_holds(sdx.universal,
                               {core::AttrSet::single(workloads::kSdxIpDst),
                                core::AttrSet::single(workloads::kSdxOut)})
                    ? "yes"
                    : "no")
            << "\n";
  std::cout << "does (ip_dst, tcp_dst) determine out? "
            << (core::fd_holds(
                    sdx.universal,
                    {core::AttrSet{workloads::kSdxIpDst,
                                   workloads::kSdxTcpDst},
                     core::AttrSet::single(workloads::kSdxOut)})
                    ? "yes"
                    : "no")
            << "\n\n";

  // The naive three-table pipeline is structurally broken.
  const Status broken = sdx.broken.validate();
  std::cout << "naive T_an >> T_out >> T_in: " << broken.to_string()
            << "\n\n";

  // The Fig. 5c repair carries the outbound choice explicitly.
  std::cout << "metadata repair (Fig. 5c):\n"
            << sdx.repaired.to_string() << "\n";
  const auto proof =
      analysis::symbolic::check_table_vs_pipeline(sdx.universal, sdx.repaired);
  std::cout << "equivalent to the collapsed policy: "
            << analysis::symbolic::describe(proof) << "\n";

  // Trace two packets: HTTP to P1 balances across C1/C2; the rest is D.
  for (const auto& [hash, label] : {std::pair{0, "hash=0"}, {1, "hash=1"}}) {
    core::PacketState packet{
        {"ip_dst", sdx.universal.at(0, workloads::kSdxIpDst)},
        {"tcp_dst", 80},
        {"hash", static_cast<core::Value>(hash)}};
    const auto result = sdx.repaired.evaluate(packet);
    std::cout << "HTTP to P1 (" << label << ") => out="
              << (result.hit ? std::to_string(result.actions.at("out"))
                             : "drop")
              << "\n";
  }
  return proof.equivalent() ? 0 : 1;
}

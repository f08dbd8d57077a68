// The Fig. 2 L3 router: a single-table IP forwarder normalized into the
// 3NF pipeline T0 × T1 ≫ T2 ≫ T3 (constants factored into a product
// stage, next-hop group table, port table), with the decomposition
// proven equivalent and cross-checked against the NetKAT semantics.
//
// Run: ./build/examples/l3_router
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/synthesis.hpp"
#include "netkat/table_codec.hpp"
#include "util/format.hpp"
#include "workloads/l3fwd.hpp"

using namespace maton;

int main() {
  const workloads::L3Fwd l3 = workloads::make_paper_l3_example();
  std::cout << l3.universal.to_string() << "\n";

  core::FdSet model = l3.model_fds;
  model.add(l3.universal.schema().match_set(), l3.universal.schema().all());
  std::cout << "model dependencies:\n"
            << l3.model_fds.to_string(l3.universal.schema()) << "\n";

  const core::NfReport before = core::analyze(l3.universal, model);
  std::cout << "universal table is in "
            << to_string(before.highest()) << ":\n"
            << before.to_string(l3.universal.schema()) << "\n";

  const auto result = core::normalize(
      l3.universal, {.target = core::NormalForm::kThird,
                     .join = core::JoinKind::kMetadata,
                     .model_fds = model});
  if (!result.is_ok()) {
    std::cerr << result.status().to_string() << "\n";
    return 1;
  }
  std::cout << "normalization steps:\n";
  for (const auto& step : result.value().trace) {
    std::cout << "  " << step.description << "\n";
  }
  std::cout << "\n" << result.value().pipeline.to_string() << "\n";

  // Every stage is now in (at least) 3NF against its own instance.
  for (std::size_t i = 0; i < result.value().pipeline.num_stages(); ++i) {
    const core::Table& t = result.value().pipeline.stage(i).table;
    if (t.num_cols() == 0) continue;  // spliced husk
    std::cout << "stage " << i << " (" << t.name() << "): "
              << to_string(core::analyze(t).highest()) << "\n";
  }

  const auto proof = analysis::symbolic::check_table_vs_pipeline(
      l3.universal, result.value().pipeline);
  const auto nk =
      netkat::verify_against_netkat(l3.universal, result.value().pipeline);
  std::cout << "\nequivalence proof:  " << analysis::symbolic::describe(proof)
            << "\nNetKAT consistency: " << (nk.consistent ? "yes" : "NO")
            << "\n";

  // Route one packet symbolically through the normalized pipeline.
  core::PacketState packet{{"eth_type", 0x0800},
                           {"ip_dst", l3.universal.at(0, workloads::kL3IpDst)}};
  const core::EvalResult routed =
      result.value().pipeline.evaluate(packet);
  std::cout << "\npacket to P1: "
            << (routed.hit ? "forwarded on port " +
                                 std::to_string(routed.actions.at("out")) +
                                 ", dmac " +
                                 format_mac(routed.actions.at("mod_dmac"))
                           : "dropped")
            << " (visited " << routed.path.size() << " stages)\n";
  return proof.equivalent() && nk.consistent ? 0 : 1;
}

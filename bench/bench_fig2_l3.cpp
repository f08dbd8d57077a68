// E3 — Fig. 2: normalizing the L3 forwarding pipeline into 3NF.
//
// Regenerates: the universal table's violations (mod_dmac → … partial
// against the model, out → mod_smac transitive), the normalization trace
// to the Fig. 2c shape (constant product stage + group tables), stage
// normal forms, footprints, equivalence proofs and the NetKAT
// cross-check. Exits nonzero unless every pipeline is proven equivalent
// and consistent with the NetKAT semantics.
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/synthesis.hpp"
#include "netkat/table_codec.hpp"
#include "util/report.hpp"
#include "workloads/l3fwd.hpp"

namespace {

using namespace maton;
using core::JoinKind;
using core::NormalForm;

/// Returns whether every normalized pipeline was proven equivalent and
/// NetKAT-consistent.
bool run(const workloads::L3Fwd& l3, const char* title) {
  std::cout << "--- " << title << " ---\n";
  core::FdSet model = l3.model_fds;
  model.add(l3.universal.schema().match_set(), l3.universal.schema().all());

  const auto report = core::analyze(l3.universal, model);
  std::cout << "universal table: " << l3.universal.num_rows()
            << " entries, " << l3.universal.field_count() << " fields, "
            << to_string(report.highest()) << "\n";
  std::cout << report.to_string(l3.universal.schema()) << "\n";

  ReportTable table("normalization results");
  table.set_header({"target", "join", "stages", "entries", "fields",
                    "depth", "steps", "equivalent", "netkat"});
  bool proven = true;
  for (const NormalForm target : {NormalForm::kSecond, NormalForm::kThird}) {
    for (const JoinKind join : {JoinKind::kGoto, JoinKind::kMetadata}) {
      const auto out = core::normalize(
          l3.universal, {.target = target, .join = join, .model_fds = model});
      if (!out.is_ok()) {
        table.add_row({std::string(to_string(target)),
                       std::string(to_string(join)), "-", "-", "-", "-", "-",
                       out.status().to_string(), "-"});
        continue;
      }
      const auto& result = out.value();
      const auto proof = analysis::symbolic::check_table_vs_pipeline(
          l3.universal, result.pipeline);
      const auto nk = netkat::verify_against_netkat(l3.universal,
                                                    result.pipeline);
      proven = proven && proof.equivalent() && nk.consistent;
      table.add_row({std::string(to_string(target)),
                     std::string(to_string(join)),
                     std::to_string(result.pipeline.num_stages()),
                     std::to_string(result.pipeline.total_entries()),
                     std::to_string(result.pipeline.field_count()),
                     std::to_string(result.pipeline.max_depth()),
                     std::to_string(result.trace.size()),
                     analysis::symbolic::describe(proof),
                     nk.consistent ? "yes" : "NO"});
    }
  }
  table.print(std::cout);
  return proven;
}

}  // namespace

int main() {
  std::cout << "=== E3: Fig. 2 L3 pipeline normalization ===\n\n";

  const auto paper = workloads::make_paper_l3_example();
  bool proven = run(paper, "Fig. 2a instance (P1..P4, D1..D3, 2 ports)");

  // The full normalization trace for the paper instance, showing the
  // Fig. 2c structure: constant factoring + group-table decompositions.
  core::FdSet model = paper.model_fds;
  model.add(paper.universal.schema().match_set(),
            paper.universal.schema().all());
  const auto out = core::normalize(
      paper.universal,
      {.target = core::NormalForm::kThird, .join = core::JoinKind::kMetadata,
       .model_fds = model});
  if (out.is_ok()) {
    std::cout << "trace (metadata join):\n";
    for (const auto& step : out.value().trace) {
      std::cout << "  stage " << step.stage << ": " << step.description
                << "\n";
    }
    std::cout << "\n" << out.value().pipeline.to_string() << "\n";
  }

  const auto scaled = workloads::make_l3fwd(
      {.num_prefixes = 256, .num_nexthops = 16, .num_ports = 4});
  proven = run(scaled,
               "generated instance (256 prefixes, 16 next-hops, 4 ports)") &&
           proven;

  std::cout << "paper: Fig. 2c = T0 x T1 >> T2 >> T3 with the constant\n"
               "(eth_type, mod_ttl) table factored out as a product\n";
  return proven ? 0 : 1;
}

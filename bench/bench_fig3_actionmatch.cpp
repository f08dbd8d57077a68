// E4 — Fig. 3: action → match dependencies cannot be decomposed.
//
// Regenerates: the rejection of every join abstraction for out → vlan on
// the Fig. 3 table (with the structural diagnosis — the projected first
// stage violates 1NF), and shows that full normalization survives by
// skipping the undecomposable dependency while preserving semantics.
// Exits nonzero unless the normalized pipeline is proven equivalent.
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/synthesis.hpp"
#include "util/report.hpp"
#include "workloads/vlan.hpp"

namespace {

using namespace maton;
using core::JoinKind;

}  // namespace

int main() {
  std::cout << "=== E4: Fig. 3 action->match decomposition rejection ===\n\n";

  const core::Table vlan = workloads::make_vlan_example();
  const core::Fd fd = workloads::vlan_action_to_match_fd();
  std::cout << vlan.to_string() << "\n";
  std::cout << "dependency under test: " << to_string(fd, vlan.schema())
            << " (holds in instance: "
            << (core::fd_holds(vlan, fd) ? "yes" : "no") << ")\n\n";

  // The structural reason, straight from the paper: the projection onto
  // (in_port, out) repeats in_port=1.
  const core::Table projected =
      vlan.project(core::AttrSet{workloads::kVlanInPort, workloads::kVlanOut});
  std::cout << "naive first-stage projection (Fig. 3b):\n"
            << projected.to_string() << "order-independent: "
            << (projected.is_order_independent() ? "yes" : "NO") << "\n\n";

  ReportTable table("decomposition attempts on out -> vlan");
  table.set_header({"join", "outcome"});
  for (const JoinKind join :
       {JoinKind::kGoto, JoinKind::kMetadata, JoinKind::kRematch}) {
    const auto dec = core::decompose_on_fd(vlan, fd, {join, "meta.t"});
    table.add_row({std::string(to_string(join)),
                   dec.is_ok() ? "ACCEPTED (unexpected!)"
                               : dec.status().to_string()});
  }
  table.print(std::cout);

  // Normalization must survive the undecomposable dependency.
  const auto out = core::normalize(vlan, {.target = core::NormalForm::kBoyceCodd});
  if (!out.is_ok()) {
    std::cout << "normalize(target=BCNF): " << out.status().to_string()
              << "\n";
    return 1;
  }
  const auto proof = analysis::symbolic::check_table_vs_pipeline(
      vlan, out.value().pipeline);
  std::cout << "normalize(target=BCNF): " << out.value().trace.size()
            << " step(s) applied, " << out.value().skipped.size()
            << " violation(s) skipped as undecomposable, equivalent: "
            << analysis::symbolic::describe(proof) << "\n";
  for (const std::string& reason : out.value().skipped) {
    std::cout << "  skipped: " << reason << "\n";
  }
  std::cout << "\npaper: such dependencies are rejected because the "
               "sub-tables would not be in 1NF\n";
  return proof.equivalent() ? 0 : 1;
}

// E1 — Fig. 1 and the §2 "Redundancy" arithmetic.
//
// Regenerates: the 24-vs-21 match-action-field count of the paper's
// example, the per-join footprints, and the 4MN vs N(3+2M) formula sweep
// ("roughly half the data-plane encoding size for M large enough").
// Every representation is proven equivalent to the universal table; the
// bench exits nonzero otherwise.
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "controlplane/representation.hpp"
#include "util/format.hpp"
#include "util/report.hpp"
#include "workloads/gwlb.hpp"

namespace {

using namespace maton;

/// Returns whether every representation was proven equivalent.
bool paper_instance() {
  const auto gwlb = workloads::make_paper_example();
  const auto universal = core::Pipeline::single(gwlb.universal);
  const auto goto_p = cp::pipeline_for(gwlb, cp::Representation::kGoto);
  const auto meta_p = cp::pipeline_for(gwlb, cp::Representation::kMetadata);
  const auto rematch_p = cp::pipeline_for(gwlb, cp::Representation::kRematch);

  ReportTable table("Fig. 1 instance: data-plane footprint by representation");
  table.set_header({"representation", "tables", "entries", "fields",
                    "depth", "equivalent"});
  bool proven = true;
  auto add = [&](const char* name, const core::Pipeline& p) {
    const auto proof =
        analysis::symbolic::check_table_vs_pipeline(gwlb.universal, p);
    proven = proven && proof.equivalent();
    table.add_row({name, std::to_string(p.num_stages()),
                   std::to_string(p.total_entries()),
                   std::to_string(p.field_count()),
                   std::to_string(p.max_depth()),
                   analysis::symbolic::describe(proof)});
  };
  add("universal (Fig. 1a)", universal);
  add("goto (Fig. 1b)", goto_p);
  add("metadata (Fig. 1c)", meta_p);
  add("rematch (Fig. 1d)", rematch_p);
  table.print(std::cout);
  std::cout << "paper: universal = 24 fields, goto form = 21 fields\n\n";
  return proven;
}

void formula_sweep() {
  ReportTable table(
      "Footprint sweep: universal 4MN vs goto-form N(3+2M) fields");
  table.set_header({"N", "M", "universal", "goto", "metadata", "rematch",
                    "goto/universal"});
  for (const std::size_t n : {1, 4, 16, 20, 64}) {
    for (const std::size_t m : {1, 2, 8, 32, 64}) {
      const auto gwlb = workloads::make_gwlb(
          {.num_services = n, .num_backends = m, .seed = 1});
      const std::size_t uni =
          core::Pipeline::single(gwlb.universal).field_count();
      const std::size_t gt =
          cp::pipeline_for(gwlb, cp::Representation::kGoto).field_count();
      const std::size_t meta =
          cp::pipeline_for(gwlb, cp::Representation::kMetadata).field_count();
      const std::size_t rem =
          cp::pipeline_for(gwlb, cp::Representation::kRematch).field_count();
      table.add_row({std::to_string(n), std::to_string(m),
                     std::to_string(uni), std::to_string(gt),
                     std::to_string(meta), std::to_string(rem),
                     format_double(static_cast<double>(gt) /
                                       static_cast<double>(uni),
                                   3)});
    }
  }
  table.print(std::cout);
  std::cout << "paper: ratio N(3+2M)/4MN -> 1/2 as M grows\n";
}

}  // namespace

int main() {
  std::cout << "=== E1: Fig. 1 / §2 redundancy arithmetic ===\n\n";
  const bool proven = paper_instance();
  formula_sweep();
  return proven ? 0 : 1;
}

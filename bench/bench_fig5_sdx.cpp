// E7 — Fig. 5 (appendix): the SDX use case beyond 3NF.
//
// Regenerates: the collapsed universal SDX policy, the failure of the
// naive three-table chaining (T_in not order-independent — a join
// dependency, not derivable from FDs), and the metadata-based repair of
// Fig. 5c with its footprint and equivalence proof. Exits nonzero unless
// every valid representation is proven equivalent and NetKAT-consistent;
// the naive pipeline's rejection is the expected result.
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/fd_mine.hpp"
#include "netkat/table_codec.hpp"
#include "util/report.hpp"
#include "workloads/sdx.hpp"

namespace {
using namespace maton;
}  // namespace

int main() {
  std::cout << "=== E7: Fig. 5 SDX — beyond the third normal form ===\n\n";

  const workloads::Sdx sdx = workloads::make_sdx_example();
  std::cout << sdx.universal.to_string() << "\n";

  // No functional dependency explains the three-way split.
  const core::FdSet mined = core::mine_fds_tane(sdx.universal);
  std::cout << "instance dependencies with out on the RHS:\n";
  for (const core::Fd& fd : mined.fds()) {
    if (fd.rhs.contains(workloads::kSdxOut)) {
      std::cout << "  " << to_string(fd, sdx.universal.schema()) << "\n";
    }
  }
  std::cout << "(the announcement/outbound/inbound split is a join "
               "dependency, 4NF/5NF territory)\n\n";

  const Status broken = sdx.broken.validate();
  std::cout << "naive T_an >> T_out >> T_in chaining: "
            << (broken.is_ok() ? "accepted (unexpected!)"
                               : broken.to_string())
            << "\n\n";

  ReportTable table("Fig. 5 representations");
  table.set_header({"representation", "tables", "entries", "fields",
                    "valid", "equivalent", "netkat"});
  bool proven = true;
  auto add = [&](const char* name, const core::Pipeline& p) {
    const bool valid = p.validate().is_ok();
    std::string eq = "-";
    std::string nk = "-";
    if (valid) {
      const auto proof =
          analysis::symbolic::check_table_vs_pipeline(sdx.universal, p);
      const bool consistent =
          netkat::verify_against_netkat(sdx.universal, p).consistent;
      proven = proven && proof.equivalent() && consistent;
      eq = analysis::symbolic::describe(proof);
      nk = consistent ? "yes" : "NO";
    }
    table.add_row({name, std::to_string(p.num_stages()),
                   std::to_string(p.total_entries()),
                   std::to_string(p.field_count()), valid ? "yes" : "NO",
                   eq, nk});
  };
  add("universal (Fig. 5a)", core::Pipeline::single(sdx.universal));
  add("naive 3-table (Fig. 5b)", sdx.broken);
  add("metadata repair (Fig. 5c)", sdx.repaired);
  table.print(std::cout);

  std::cout << "paper: the naive pipeline is incorrect because T_in must "
               "choose without knowing the\noutbound decision; encoding "
               "the match results in an explicit metadata field repairs "
               "it\n";
  return proven ? 0 : 1;
}

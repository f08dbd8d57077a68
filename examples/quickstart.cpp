// Quickstart: build a match-action table, discover its functional
// dependencies, analyze its normal form, normalize it, and prove the
// result is semantically equivalent.
//
// Run: ./build/examples/quickstart
#include <iostream>

#include "analysis/symbolic/engine.hpp"
#include "core/fd_mine.hpp"
#include "core/normal_forms.hpp"
#include "core/synthesis.hpp"

using namespace maton;

int main() {
  // 1. Describe the table: match fields and actions are both attributes.
  core::Schema schema;
  schema.add_match("ip_dst", core::ValueCodec::kIpv4);
  schema.add_match("tcp_dst", core::ValueCodec::kPort, 16);
  schema.add_action("pool", core::ValueCodec::kPlain, 16);
  schema.add_action("out", core::ValueCodec::kPort, 16);

  // 2. Fill it. Each (ip_dst, tcp_dst) service maps to a backend pool,
  //    and the pool alone decides the output port — a redundancy.
  core::Table table("acl", std::move(schema));
  table.add_row(core::Row{0xC0000201, 80, 1, 10});   // 192.0.2.1:80  -> pool 1
  table.add_row(core::Row{0xC0000201, 443, 1, 10});  // 192.0.2.1:443 -> pool 1
  table.add_row(core::Row{0xC0000202, 80, 2, 20});   // 192.0.2.2:80  -> pool 2
  table.add_row(core::Row{0xC0000203, 80, 2, 20});   // 192.0.2.3:80  -> pool 2
  std::cout << table.to_string() << "\n";

  // 3. Mine the dependencies that hold in this configuration.
  const core::FdSet fds = core::mine_fds_tane(table);
  std::cout << "dependencies:\n" << fds.to_string(table.schema()) << "\n";

  // 4. Where does it sit in the normal-form hierarchy?
  const core::NfReport report = core::analyze(table, fds);
  std::cout << report.to_string(table.schema()) << "\n";

  // 5. Normalize (metadata join) and show the pipeline.
  const auto result = core::normalize(
      table, {.target = core::NormalForm::kThird,
              .join = core::JoinKind::kMetadata});
  if (!result.is_ok()) {
    std::cerr << "normalization failed: " << result.status().to_string()
              << "\n";
    return 1;
  }
  for (const auto& step : result.value().trace) {
    std::cout << "applied: " << step.description << "\n";
  }
  std::cout << "\n" << result.value().pipeline.to_string() << "\n";

  // 6. Prove nothing changed semantically, for every packet.
  const auto proof = analysis::symbolic::check_table_vs_pipeline(
      table, result.value().pipeline);
  std::cout << "equivalent: " << analysis::symbolic::describe(proof)
            << "\n";
  return proof.equivalent() ? 0 : 1;
}

#include "netkat/table_codec.hpp"

#include <vector>

#include "util/contract.hpp"

namespace maton::netkat {

using core::Schema;
using core::Table;

namespace {

/// The entry policy of one row: match tests then action modifications.
PolicyPtr row_policy(const Table& table, std::size_t row) {
  const Schema& schema = table.schema();
  std::vector<PolicyPtr> parts;
  for (std::size_t c : schema.match_set()) {
    parts.push_back(test(schema.at(c).name, table.at(row, c)));
  }
  for (std::size_t c : schema.action_set()) {
    parts.push_back(mod(schema.at(c).name, table.at(row, c)));
  }
  return seq_all(parts);
}

}  // namespace

PolicyPtr from_table(const Table& table) {
  std::vector<PolicyPtr> entries;
  entries.reserve(table.num_rows());
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    entries.push_back(row_policy(table, r));
  }
  return par_all(entries);
}

PolicyPtr from_pipeline(const core::Pipeline& pipeline) {
  if (pipeline.num_stages() == 0) return drop();
  expects(pipeline.validate().is_ok(),
          "from_pipeline requires a validated (acyclic) pipeline");

  std::vector<PolicyPtr> memo(pipeline.num_stages());
  auto build = [&](auto&& self, std::size_t i) -> PolicyPtr {
    if (memo[i] != nullptr) return memo[i];
    const core::Stage& st = pipeline.stage(i);
    std::vector<PolicyPtr> entries;
    entries.reserve(st.table.num_rows());
    for (std::size_t r = 0; r < st.table.num_rows(); ++r) {
      PolicyPtr entry = row_policy(st.table, r);
      if (st.uses_goto()) {
        entry = seq(std::move(entry), self(self, st.goto_targets[r]));
      }
      entries.push_back(std::move(entry));
    }
    PolicyPtr policy = par_all(entries);
    if (!st.uses_goto() && st.next.has_value()) {
      policy = seq(std::move(policy), self(self, *st.next));
    }
    memo[i] = std::move(policy);
    return memo[i];
  };
  return build(build, pipeline.entry());
}

namespace {

/// Removes pipeline-internal metadata fields before comparing packets.
Packet strip_metadata(const Packet& packet) {
  Packet out;
  for (const auto& [name, value] : packet) {
    if (!core::is_metadata_name(name)) out.emplace(name, value);
  }
  return out;
}

PacketSet strip_metadata(const PacketSet& set) {
  PacketSet out;
  for (const Packet& p : set) out.insert(strip_metadata(p));
  return out;
}

std::string describe(const Packet& packet) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : packet) {
    if (!first) out += ", ";
    out += name + "=" + std::to_string(value);
    first = false;
  }
  return out + "}";
}

}  // namespace

VerifyReport verify_against_netkat(const Table& table,
                                   const core::Pipeline& pipeline,
                                   const VerifyOptions& opts) {
  VerifyReport report;
  const PolicyPtr table_policy = from_table(table);
  const PolicyPtr pipeline_policy = from_pipeline(pipeline);

  // Probe set: each entry's own packet plus randomized active-domain
  // probes (with one out-of-domain value per field).
  std::vector<Packet> probes;
  for (std::size_t r = 0; r < table.num_rows(); ++r) {
    probes.push_back(core::packet_for_row(table, r));
  }
  for (Packet& probe :
       core::draw_table_probes(table, opts.random_probes, opts.seed)) {
    probes.push_back(std::move(probe));
  }

  for (const Packet& probe : probes) {
    ++report.packets_checked;
    const PacketSet nk_table = strip_metadata(eval(table_policy, probe));
    const PacketSet nk_pipe = strip_metadata(eval(pipeline_policy, probe));
    if (nk_table != nk_pipe) {
      report.consistent = false;
      report.counterexample = "NetKAT semantics diverge on " + describe(probe);
      return report;
    }
    // Cross-check the core evaluator against the denotational semantics.
    const core::EvalResult core_result = pipeline.evaluate(probe);
    if (core_result.hit != !nk_pipe.empty()) {
      report.consistent = false;
      report.counterexample =
          "core evaluator hit/miss disagrees with NetKAT on " +
          describe(probe);
      return report;
    }
    if (core_result.hit) {
      ensures(nk_pipe.size() == 1,
              "1NF pipelines must be deterministic under NetKAT");
      const Packet& nk_out = *nk_pipe.begin();
      for (const auto& [name, value] : core_result.actions) {
        const auto it = nk_out.find(name);
        if (it == nk_out.end() || it->second != value) {
          report.consistent = false;
          report.counterexample = "action " + name +
                                  " disagrees with NetKAT on " +
                                  describe(probe);
          return report;
        }
      }
    }
  }
  return report;
}

}  // namespace maton::netkat

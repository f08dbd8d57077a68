#include "core/probe_oracle.hpp"

#include <set>

#include "util/rng.hpp"

namespace maton::core {

std::vector<PacketState> draw_table_probes(const Table& table,
                                           std::size_t count,
                                           std::uint64_t seed) {
  const Schema& schema = table.schema();
  const std::vector<std::size_t> match_cols = [&] {
    const AttrSet m = schema.match_set();
    return std::vector<std::size_t>(m.begin(), m.end());
  }();

  // Per-column domain: the active values plus one fresh value outside
  // the active domain.
  std::vector<std::vector<Value>> domain(match_cols.size());
  for (std::size_t k = 0; k < match_cols.size(); ++k) {
    std::set<Value> seen;
    for (std::size_t i = 0; i < table.num_rows(); ++i) {
      seen.insert(table.at(i, match_cols[k]));
    }
    Value fresh = 0;
    while (seen.count(fresh) != 0) ++fresh;
    domain[k].assign(seen.begin(), seen.end());
    domain[k].push_back(fresh);
  }

  Rng rng(seed);
  std::vector<PacketState> probes;
  probes.reserve(count);
  for (std::size_t probe = 0; probe < count; ++probe) {
    PacketState packet;
    for (std::size_t k = 0; k < match_cols.size(); ++k) {
      packet[schema.at(match_cols[k]).name] =
          domain[k][rng.index(domain[k].size())];
    }
    probes.push_back(std::move(packet));
  }
  return probes;
}

}  // namespace maton::core

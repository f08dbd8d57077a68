// Shared probe oracle: the one place that turns a seed into equivalence
// probe packets. Both probe-based checkers — core::check_equivalence's
// randomized phase and netkat::verify_against_netkat's cross-check of
// the NetKAT semantics — draw through this module, so they share one
// reproducible active-domain draw instead of each reinventing it.
//
// Every production equivalence verdict is a symbolic proof
// (analysis/symbolic); the oracle remains as the independent cross-check
// the differential test suites compare the solver against.
#pragma once

#include <cstdint>
#include <vector>

#include "core/pipeline.hpp"
#include "core/table.hpp"

namespace maton::core {

/// Seed of every probe-based equivalence check ("maton" in ASCII).
inline constexpr std::uint64_t kProbeSeed = 0x6d61746f6eULL;

/// Draws `count` probe packets over the match columns of `table`:
/// uniform over each column's active value domain plus one fresh value
/// no entry uses, which exercises miss and partial-hit paths. Draw
/// order is deterministic in (table contents, seed).
[[nodiscard]] std::vector<PacketState> draw_table_probes(
    const Table& table, std::size_t count,
    std::uint64_t seed = kProbeSeed);

}  // namespace maton::core

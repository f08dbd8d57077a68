// Erasing a sorted set of positions from a sequence in one pass. The
// survivors keep their order, so each one moves down by the number of
// erased positions below it; an index over the sequence records the
// erased positions in a util::BuildPositions map instead of renumbering.
#pragma once

#include <cstddef>
#include <span>

namespace maton {

/// Erases `positions` (strictly ascending, each below `n`) from a
/// sequence of `n` elements: calls move(from, to) for every survivor
/// after the first erased position, in ascending order, and returns the
/// survivors' count. The caller owns the storage and truncates it.
template <typename Move>
std::size_t erase_sorted(std::size_t n, std::span<const std::size_t> positions,
                         Move&& move) {
  if (positions.empty()) return n;
  std::size_t to = positions.front();
  for (std::size_t k = 0; k < positions.size(); ++k) {
    const std::size_t end = k + 1 < positions.size() ? positions[k + 1] : n;
    for (std::size_t from = positions[k] + 1; from < end; ++from) {
      move(from, to++);
    }
  }
  return to;
}

}  // namespace maton

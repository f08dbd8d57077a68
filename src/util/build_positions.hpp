// The removal map shared by every index over a rule sequence that is
// built once and then patched by removals: the classifiers, the
// FlatRules match index and the compiler's slice index. Such an index
// keeps the positions the rules had at its last (re)build and reads
// them through this map, so a removal records the erased positions
// instead of renumbering every survivor.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace maton::util {

/// Rule positions of an index built once and then patched by removals.
/// The index keeps the positions the rules had at build time; a removal
/// keeps the surviving rules in order, so a live position is the build
/// position minus the removed build positions below it. The removed
/// positions are a bitmap with a running count per 64-bit word, so
/// either mapping is O(1) on the lookup path; nothing is allocated or
/// computed while no rule has been removed.
///
/// A rule appended after every survivor takes the next build position
/// (append()): every removed position lies below it, so the map stays
/// valid without a rebuild. An owner rebuilds — constructs a fresh map —
/// on an insert or a re-position, and once can_remove() refuses a run:
/// past a quarter of the built rules a rebuild is cheaper than carrying
/// the removed ones, which makes the rebuilds amortized O(1) per removed
/// rule.
class BuildPositions {
 public:
  BuildPositions() = default;
  explicit BuildPositions(std::size_t built) : built_(built) {}

  /// Build positions handed out so far (surviving and removed).
  [[nodiscard]] std::size_t built() const noexcept { return built_; }
  [[nodiscard]] std::size_t removed() const noexcept { return removed_; }

  /// Live position of the surviving rule built at `build`.
  [[nodiscard]] std::size_t live(std::size_t build) const noexcept {
    if (removed_ == 0) return build;
    const Word& w = words_[build >> 6];
    const std::uint64_t lower = (std::uint64_t{1} << (build & 63)) - 1;
    return build - w.below -
           static_cast<std::size_t>(std::popcount(w.bits & lower));
  }

  /// Maps results from build to live positions in place; entries equal
  /// to `none` (no match) are left alone.
  void to_live(std::span<std::size_t> out, std::size_t none) const noexcept {
    if (removed_ == 0) return;
    for (std::size_t& r : out) {
      if (r != none) r = live(r);
    }
  }

  /// Build position of the rule now at live position `index`: a binary
  /// search over the words. Owners that can learn the build position
  /// from their own index entry should.
  [[nodiscard]] std::size_t build(std::size_t index) const noexcept {
    if (removed_ == 0) return index;
    // The last word whose survivors before it number at most `index`
    // holds the rule; it is that word's (index - before)-th survivor.
    const auto before = [&](std::size_t k) { return 64 * k - words_[k].below; };
    std::size_t lo = 0;
    std::size_t hi = words_.size();
    while (hi - lo > 1) {
      const std::size_t mid = lo + (hi - lo) / 2;
      if (before(mid) <= index) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    std::uint64_t survivors = ~words_[lo].bits;
    for (std::size_t r = index - before(lo); r > 0; --r) {
      survivors &= survivors - 1;
    }
    return 64 * lo + static_cast<std::size_t>(std::countr_zero(survivors));
  }

  /// Whether `count` more removals may be recorded: past a fixed share of
  /// the built rules the owner rebuilds instead.
  [[nodiscard]] bool can_remove(std::size_t count = 1) const noexcept {
    return (removed_ + count) * kMaxRemovedShare <= built_;
  }

  /// Marks the surviving rules built at `builds` (strictly ascending)
  /// removed: one pass over the words from the first one touched.
  template <typename Position>
  void remove(std::span<const Position> builds) {
    if (builds.empty()) return;
    if (words_.empty()) words_.resize((built_ + 63) / 64);
    for (const Position b : builds) {
      words_[b >> 6].bits |= std::uint64_t{1} << (b & 63);
    }
    const std::size_t first = static_cast<std::size_t>(builds.front()) >> 6;
    std::uint64_t below = words_[first].below;
    for (std::size_t k = first; k < words_.size(); ++k) {
      words_[k].below = below;
      below += static_cast<std::uint64_t>(std::popcount(words_[k].bits));
    }
    removed_ += builds.size();
  }
  void remove(std::size_t build) {
    remove(std::span<const std::size_t>(&build, 1));
  }

  /// Build position of a rule appended after every survivor.
  [[nodiscard]] std::size_t append() {
    const std::size_t build = built_++;
    if (!words_.empty() && (build >> 6) == words_.size()) {
      words_.push_back({0, removed_});
    }
    return build;
  }

 private:
  /// An owner rebuilds instead of recording removals beyond
  /// 1/kMaxRemovedShare of its built rules.
  static constexpr std::size_t kMaxRemovedShare = 4;

  struct Word {
    std::uint64_t bits = 0;   // removed build positions in this word
    std::uint64_t below = 0;  // removed build positions in earlier words
  };

  std::size_t built_ = 0;
  std::size_t removed_ = 0;
  std::vector<Word> words_;
};

}  // namespace maton::util

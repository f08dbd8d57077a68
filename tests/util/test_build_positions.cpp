// util::BuildPositions against a plain model: the build positions of the
// surviving rules, in order. Removal runs and appends interleave; after
// each step live() and build() must invert each other and agree with the
// model, and can_remove() must hold exactly up to a quarter of the built
// positions.
#include "util/build_positions.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "util/rng.hpp"

namespace maton::util {
namespace {

void expect_matches_model(const BuildPositions& map,
                          const std::vector<std::size_t>& survivors) {
  for (std::size_t live = 0; live < survivors.size(); ++live) {
    ASSERT_EQ(map.live(survivors[live]), live);
    ASSERT_EQ(map.build(live), survivors[live]);
  }
}

TEST(BuildPositions, NothingRemovedIsTheIdentity) {
  BuildPositions map(100);
  EXPECT_EQ(map.live(37), 37u);
  EXPECT_EQ(map.build(99), 99u);
  std::vector<std::size_t> out{3, ~std::size_t{0}, 7};
  map.to_live(out, ~std::size_t{0});
  EXPECT_EQ(out, (std::vector<std::size_t>{3, ~std::size_t{0}, 7}));
}

TEST(BuildPositions, RemovalRunsAndAppendsMatchAModel) {
  Rng rng(0xb0b);
  BuildPositions map(1000);
  std::vector<std::size_t> survivors(1000);
  for (std::size_t i = 0; i < survivors.size(); ++i) survivors[i] = i;
  for (int step = 0; step < 300; ++step) {
    if (rng.chance(0.4)) {
      // Appends land after every survivor, removed or not.
      for (std::uint64_t k = rng.uniform(1, 70); k > 0; --k) {
        const std::size_t build = map.append();
        ASSERT_EQ(build, map.built() - 1);
        survivors.push_back(build);
      }
    } else {
      std::vector<std::size_t> live;
      for (std::uint64_t k = rng.uniform(1, 9); k > 0; --k) {
        live.push_back(rng.index(survivors.size()));
      }
      std::sort(live.begin(), live.end());
      live.erase(std::unique(live.begin(), live.end()), live.end());
      if (!map.can_remove(live.size())) {
        // A rebuild: the survivors are renumbered from zero.
        ASSERT_GT((map.removed() + live.size()) * 4, map.built());
        map = BuildPositions(survivors.size());
        for (std::size_t i = 0; i < survivors.size(); ++i) survivors[i] = i;
      }
      std::vector<std::size_t> builds;
      for (const std::size_t p : live) builds.push_back(survivors[p]);
      map.remove(std::span<const std::size_t>(builds));
      for (std::size_t k = live.size(); k-- > 0;) {
        survivors.erase(survivors.begin() +
                        static_cast<std::ptrdiff_t>(live[k]));
      }
    }
    ASSERT_EQ(map.built() - map.removed(), survivors.size());
    ASSERT_NO_FATAL_FAILURE(expect_matches_model(map, survivors))
        << "step " << step;
  }
}

TEST(BuildPositions, CanRemoveUpToAQuarterOfTheBuiltPositions) {
  BuildPositions map(64);
  EXPECT_TRUE(map.can_remove(16));
  EXPECT_FALSE(map.can_remove(17));
  const std::vector<std::size_t> run{1, 5, 9, 63};
  map.remove(std::span<const std::size_t>(run));
  EXPECT_TRUE(map.can_remove(12));
  EXPECT_FALSE(map.can_remove(13));
  for (int i = 0; i < 4; ++i) (void)map.append();  // 68 built
  EXPECT_TRUE(map.can_remove(13));
}

}  // namespace
}  // namespace maton::util

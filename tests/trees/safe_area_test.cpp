// Safe areas on trees: closed form vs. the brute-force hull intersection,
// plus the properties the iterated baseline relies on.
#include "trees/safe_area.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "perf/tree_index.h"
#include "trees/generators.h"
#include "trees/paths.h"

namespace treeaa {
namespace {

TEST(SafeArea, NoFaultsIsConvexHullIntersectionOfFullSet) {
  // t = 0: the safe area is just the hull of the whole multiset.
  const auto t = make_path(7);
  const std::vector<VertexId> m{1, 3, 5};
  const auto area = safe_area(t, m, 0);
  EXPECT_EQ(area, convex_hull(t, m));
}

TEST(SafeArea, SimplePathExample) {
  // Path 0-1-2-3-4, m = {0, 0, 4, 4, 2}, t = 1, limit = |m|-t-1 = 3.
  // Vertex 2: sides hold 2 and 2 -> safe. Vertex 0: right side holds 3
  // (4,4,2) -> safe. Vertex 4 symmetric. Vertex 1: right side (4,4,2) = 3
  // -> safe. Everything is safe here.
  const auto t = make_path(5);
  const std::vector<VertexId> m{0, 0, 4, 4, 2};
  const auto area = safe_area(t, m, 1);
  EXPECT_EQ(area, (std::vector<VertexId>{0, 1, 2, 3, 4}));
}

TEST(SafeArea, ExtremesExcludedWhenConcentrated) {
  // Path 0-..-6, m = {0, 3, 3, 3, 3, 3, 6}, t = 2, limit = 4.
  // Vertex 0: right side holds 6 > 4 -> unsafe. Vertex 6 symmetric.
  // Vertex 3: left side holds 1, right side 1 -> safe.
  const auto t = make_path(7);
  const std::vector<VertexId> m{0, 3, 3, 3, 3, 3, 6};
  const auto area = safe_area(t, m, 2);
  EXPECT_TRUE(std::binary_search(area.begin(), area.end(), 3u));
  EXPECT_FALSE(std::binary_search(area.begin(), area.end(), 0u));
  EXPECT_FALSE(std::binary_search(area.begin(), area.end(), 6u));
}

TEST(SafeArea, RequiresEnoughValues) {
  const auto t = make_path(3);
  const std::vector<VertexId> m{0, 2};
  EXPECT_THROW((void)safe_area(t, m, 1), std::invalid_argument);  // 2 < 2t+1
}

class SafeAreaRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SafeAreaRandom, MatchesBruteForceIntersection) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const auto t = make_random_tree(2 + rng.index(14), rng);
    const std::size_t faults = rng.index(3);
    const std::size_t m_size = 2 * faults + 1 + rng.index(4);
    std::vector<VertexId> m;
    for (std::size_t i = 0; i < m_size; ++i) {
      m.push_back(static_cast<VertexId>(rng.index(t.n())));
    }
    EXPECT_EQ(safe_area(t, m, faults), safe_area_bruteforce(t, m, faults))
        << "seed " << GetParam() << " trial " << trial;
  }
}

TEST_P(SafeAreaRandom, SafeAreaInsideHonestHullForEveryByzantineSubset) {
  // The defining property the protocol needs: whichever t elements were
  // Byzantine, the safe area is inside the hull of the remaining elements.
  Rng rng(GetParam() ^ 0x321);
  const auto t = make_random_tree(2 + rng.index(16), rng);
  const std::size_t faults = 1 + rng.index(2);
  const std::size_t m_size = 2 * faults + 2;
  std::vector<VertexId> m;
  for (std::size_t i = 0; i < m_size; ++i) {
    m.push_back(static_cast<VertexId>(rng.index(t.n())));
  }
  const auto area = safe_area(t, m, faults);
  // Remove each possible fault subset of size `faults`.
  std::vector<std::size_t> idx(faults);
  for (std::size_t a = 0; a < m_size; ++a) {
    for (std::size_t b = a + (faults > 1 ? 1 : 0); b < m_size; ++b) {
      std::vector<VertexId> rest;
      for (std::size_t i = 0; i < m_size; ++i) {
        if (i == a || (faults > 1 && i == b)) continue;
        rest.push_back(m[i]);
      }
      for (const VertexId v : area) {
        EXPECT_TRUE(in_hull(t, rest, v))
            << "safe vertex " << v << " escapes hull when dropping " << a
            << "," << b;
      }
      if (faults == 1) break;  // inner loop only meaningful for faults == 2
    }
    if (faults == 1) continue;
  }
}

TEST_P(SafeAreaRandom, SafeAreaIsConnectedAndNonEmpty) {
  Rng rng(GetParam() ^ 0x654);
  const auto t = make_random_tree(2 + rng.index(30), rng);
  const std::size_t faults = rng.index(3);
  const std::size_t m_size = 2 * faults + 1 + rng.index(5);
  std::vector<VertexId> m;
  for (std::size_t i = 0; i < m_size; ++i) {
    m.push_back(static_cast<VertexId>(rng.index(t.n())));
  }
  const auto area = safe_area(t, m, faults);
  ASSERT_FALSE(area.empty());
  std::vector<bool> in(t.n(), false);
  for (const VertexId v : area) in[v] = true;
  for (const VertexId v : area) {
    for (const VertexId x : t.path(v, area.front())) {
      EXPECT_TRUE(in[x]) << "safe area disconnected at " << x;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SafeAreaRandom,
                         ::testing::Values(2, 4, 8, 16, 32, 64));

// --- subtree_midpoint --------------------------------------------------------

TEST(SubtreeMidpoint, SingleVertex) {
  const auto t = make_path(5);
  EXPECT_EQ(subtree_midpoint(t, std::vector<VertexId>{3}), 3u);
}

TEST(SubtreeMidpoint, PathMiddle) {
  const auto t = make_path(7);
  const std::vector<VertexId> area{0, 1, 2, 3, 4, 5, 6};
  EXPECT_EQ(subtree_midpoint(t, area), 3u);
  const std::vector<VertexId> evenarea{0, 1, 2, 3};
  // Two-sweep BFS from min id 0 finds endpoint 3 first, so the diametral
  // path is (3, 2, 1, 0) and the floor-midpoint is its index-1 vertex, 2.
  EXPECT_EQ(subtree_midpoint(t, evenarea), 2u);
}

TEST(SubtreeMidpoint, HalvesEccentricity) {
  Rng rng(31337);
  for (int trial = 0; trial < 20; ++trial) {
    const auto t = make_random_tree(2 + rng.index(40), rng);
    // Use the full tree as the area.
    std::vector<VertexId> area(t.n());
    for (VertexId v = 0; v < t.n(); ++v) area[v] = v;
    const VertexId mid = subtree_midpoint(t, area);
    const perf::TreeIndex index(t);
    const std::uint32_t ecc = index.max_pairwise_distance(
        std::vector<VertexId>{mid}, area);
    EXPECT_LE(ecc, t.diameter() / 2 + 1);
  }
}

TEST(SubtreeMidpoint, EmptyAreaThrows) {
  const auto t = make_path(3);
  EXPECT_THROW((void)subtree_midpoint(t, {}), std::invalid_argument);
}

}  // namespace
}  // namespace treeaa

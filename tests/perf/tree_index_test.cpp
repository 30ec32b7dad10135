// Property tests pinning perf::TreeIndex — the one LCA structure — against
// test-local parent walks, BFS distances and brute-force medians. TreeIndex
// is consulted on the protocols' hot paths (projection, path indexing) and
// by check_agreement, so every query must agree exactly with the naive
// references: across every generator family plus the chainy trees,
// exhaustively on small trees and around the RMQ's 64-entry block
// boundaries, on sampled windows spanning one, two and many blocks of
// 4096-vertex trees, and on sampled pairs of a 2^16-vertex tree.
#include "perf/tree_index.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "trees/generators.h"
#include "trees/paths.h"

namespace treeaa {
namespace {

// --- Naive references --------------------------------------------------------

/// LCA by a parent walk: the deeper end climbs to the other's depth, then
/// both climb until they meet.
VertexId walk_lca(const LabeledTree& t, VertexId u, VertexId v) {
  while (t.depth(u) > t.depth(v)) u = t.parent(u);
  while (t.depth(v) > t.depth(u)) v = t.parent(v);
  while (u != v) {
    u = t.parent(u);
    v = t.parent(v);
  }
  return u;
}

std::uint32_t walk_distance(const LabeledTree& t, VertexId u, VertexId v) {
  return t.depth(u) + t.depth(v) - 2 * t.depth(walk_lca(t, u, v));
}

/// The median by definition: the one vertex on all three pairwise paths.
VertexId brute_median(const LabeledTree& t, VertexId a, VertexId b,
                      VertexId c) {
  const auto ac = t.path(a, c);
  const auto bc = t.path(b, c);
  for (const VertexId x : t.path(a, b)) {
    if (std::find(ac.begin(), ac.end(), x) != ac.end() &&
        std::find(bc.begin(), bc.end(), x) != bc.end()) {
      return x;
    }
  }
  ADD_FAILURE() << "no vertex on all three paths";
  return kNoVertex;
}

std::vector<std::uint32_t> bfs_dist(const LabeledTree& t, VertexId src) {
  std::vector<std::uint32_t> dist(t.n(), ~0u);
  std::deque<VertexId> q{src};
  dist[src] = 0;
  while (!q.empty()) {
    const VertexId v = q.front();
    q.pop_front();
    for (const VertexId w : t.neighbors(v)) {
      if (dist[w] == ~0u) {
        dist[w] = dist[v] + 1;
        q.push_back(w);
      }
    }
  }
  return dist;
}

// --- All queries against the walks, across generator families ---------------

struct Sample {
  std::string name;
  LabeledTree tree;
};

std::vector<Sample> sample_trees() {
  std::vector<Sample> samples;
  samples.push_back({"path_1", make_path(1)});
  samples.push_back({"path_2", make_path(2)});
  samples.push_back({"figure3", make_figure3_tree()});
  Rng rng(20260805);
  for (const TreeFamily family : all_tree_families()) {
    for (const std::size_t size : {5u, 23u, 80u}) {
      samples.push_back({std::string(tree_family_name(family)) + "_" +
                             std::to_string(size),
                         make_family_tree(family, size, rng)});
    }
  }
  for (const std::size_t size : {7u, 41u, 120u}) {
    samples.push_back({"chainy_" + std::to_string(size),
                       make_random_chainy_tree(size, rng, 0.9)});
  }
  return samples;
}

/// Vertices to query: everything on small trees, a random sample otherwise.
std::vector<VertexId> query_vertices(const LabeledTree& tree, Rng& rng) {
  std::vector<VertexId> vs;
  if (tree.n() <= 16) {
    for (VertexId v = 0; v < tree.n(); ++v) vs.push_back(v);
  } else {
    for (int i = 0; i < 12; ++i) {
      vs.push_back(static_cast<VertexId>(rng.index(tree.n())));
    }
  }
  return vs;
}

TEST(TreeIndexTest, PairQueriesMatchNaiveWalks) {
  std::vector<Sample> samples = sample_trees();
  // One tree at 2^16 vertices, 16x the largest elsewhere in this file. It
  // stays out of sample_trees(): the median test is quadratic in depth.
  // (2^18 took ~2.7 s here under ASan.)
  Rng big_rng(0xE0E0 + (1 << 16));
  samples.push_back({"chainy_2^16",
                     make_random_chainy_tree(1 << 16, big_rng, 0.5)});
  Rng rng(1);
  for (const Sample& s : samples) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    EXPECT_EQ(index.n(), s.tree.n());
    EXPECT_EQ(index.root(), s.tree.root());
    const auto vs = query_vertices(s.tree, rng);
    for (const VertexId u : vs) {
      EXPECT_EQ(index.depth(u), s.tree.depth(u));
      for (const VertexId v : vs) {
        const VertexId want = walk_lca(s.tree, u, v);
        EXPECT_EQ(index.lca(u, v), want);
        EXPECT_EQ(index.distance(u, v), walk_distance(s.tree, u, v));
        EXPECT_EQ(index.is_ancestor(u, v), want == u);
      }
    }
  }
}

TEST(TreeIndexTest, MedianAndProjectionMatchNaiveWalks) {
  Rng rng(2);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    const auto vs = query_vertices(s.tree, rng);
    for (const VertexId a : vs) {
      for (const VertexId b : vs) {
        for (const VertexId c : vs) {
          const VertexId want = brute_median(s.tree, a, b, c);
          EXPECT_EQ(index.median(a, b, c), want);
          // proj_P(v) with P = P(a, b) is the same median.
          EXPECT_EQ(index.project_onto_path(a, b, c), want);
        }
      }
    }
  }
}

TEST(TreeIndexTest, RootPathsMatchNaiveWalks) {
  Rng rng(3);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    for (const VertexId tip : query_vertices(s.tree, rng)) {
      const auto got = index.root_path(tip);
      const auto want = s.tree.path(s.tree.root(), tip);
      EXPECT_EQ(got, want);
      // The paper's 1-based v_1 .. v_k indexing along any root-anchored
      // path: index_on_root_path(v) must equal v's position in the walk.
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(index.index_on_root_path(got[i]), i + 1);
      }
    }
  }
}

TEST(TreeIndexTest, HullQueriesMatchNaiveWalks) {
  Rng rng(4);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    for (int trial = 0; trial < 8; ++trial) {
      std::vector<VertexId> members;
      const std::size_t k = 1 + rng.index(5);
      for (std::size_t i = 0; i < k; ++i) {
        members.push_back(static_cast<VertexId>(rng.index(s.tree.n())));
      }
      for (const VertexId w : query_vertices(s.tree, rng)) {
        EXPECT_EQ(index.in_hull(members, w), in_hull(s.tree, members, w));
      }
      // Cross-check against the materialized hull as well.
      const auto hull = convex_hull(s.tree, members);
      for (const VertexId w : hull) {
        EXPECT_TRUE(index.in_hull(members, w));
      }
    }
  }
}

TEST(TreeIndexTest, MaxPairwiseDistanceMatchesNaiveWalks) {
  Rng rng(5);
  for (const Sample& s : sample_trees()) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    const auto a = query_vertices(s.tree, rng);
    const auto b = query_vertices(s.tree, rng);
    std::uint32_t want = 0;
    for (const VertexId u : a) {
      for (const VertexId v : b) {
        want = std::max(want, walk_distance(s.tree, u, v));
      }
    }
    EXPECT_EQ(index.max_pairwise_distance(a, b), want);
  }
}

// Every public query rejects an out-of-range id the way LabeledTree does.
TEST(TreeIndexTest, VertexOutOfRangeThrows) {
  const auto t = make_figure3_tree();
  const perf::TreeIndex index(t);
  const VertexId bad = 99;
  const std::vector<VertexId> ok_set{0, 1};
  const std::vector<VertexId> bad_set{0, bad};
  EXPECT_THROW((void)index.depth(bad), std::invalid_argument);
  EXPECT_THROW((void)index.lca(0, bad), std::invalid_argument);
  EXPECT_THROW((void)index.lca(bad, 0), std::invalid_argument);
  EXPECT_THROW((void)index.distance(0, bad), std::invalid_argument);
  EXPECT_THROW((void)index.distance(bad, 0), std::invalid_argument);
  EXPECT_THROW((void)index.is_ancestor(bad, 0), std::invalid_argument);
  EXPECT_THROW((void)index.is_ancestor(0, bad), std::invalid_argument);
  EXPECT_THROW((void)index.median(0, 1, bad), std::invalid_argument);
  EXPECT_THROW((void)index.project_onto_path(0, 1, bad),
               std::invalid_argument);
  EXPECT_THROW((void)index.project_onto_path(bad, 1, 0),
               std::invalid_argument);
  EXPECT_THROW((void)index.root_path(bad), std::invalid_argument);
  EXPECT_THROW((void)index.index_on_root_path(bad), std::invalid_argument);
  EXPECT_THROW((void)index.index_on_root_path(kNoVertex),
               std::invalid_argument);
  EXPECT_THROW((void)index.in_hull(ok_set, bad), std::invalid_argument);
  EXPECT_THROW((void)index.in_hull(bad_set, 0), std::invalid_argument);
  EXPECT_THROW((void)index.max_pairwise_distance(ok_set, bad_set),
               std::invalid_argument);
}

// --- LCA, distance and median spot checks and random cross-validation -------

TEST(TreeIndexLca, SingleVertex) {
  const auto t = LabeledTree::single("a");
  const perf::TreeIndex index(t);
  const std::vector<VertexId> only{0};
  EXPECT_EQ(index.lca(0, 0), 0u);
  EXPECT_EQ(index.distance(0, 0), 0u);
  EXPECT_EQ(index.depth(0), 0u);
  EXPECT_TRUE(index.is_ancestor(0, 0));
  EXPECT_EQ(index.median(0, 0, 0), 0u);
  EXPECT_EQ(index.root_path(0), only);
  EXPECT_EQ(index.index_on_root_path(0), 1u);
  EXPECT_TRUE(index.in_hull(only, 0));
  EXPECT_EQ(index.max_pairwise_distance(only, only), 0u);
}

TEST(TreeIndexLca, Figure3SpotChecks) {
  const auto t = make_figure3_tree();
  const perf::TreeIndex index(t);
  const VertexId v2 = *t.find("v2");
  const VertexId v5 = *t.find("v5");
  const VertexId v6 = *t.find("v6");
  const VertexId v8 = *t.find("v8");
  EXPECT_EQ(index.lca(v6, v8), v2);
  EXPECT_EQ(index.distance(v6, v8), 4u);
  EXPECT_EQ(index.distance(v5, v6), 3u);
}

TEST(TreeIndexLca, Figure3MedianOfThree) {
  const auto t = make_figure3_tree();
  const perf::TreeIndex index(t);
  const VertexId v2 = *t.find("v2");
  const VertexId v5 = *t.find("v5");
  const VertexId v6 = *t.find("v6");
  const VertexId v8 = *t.find("v8");
  // Paths v5-v6, v5-v8, v6-v8 all pass through v2.
  EXPECT_EQ(index.median(v5, v6, v8), v2);
  // Median with a repeated argument is that argument's projection.
  EXPECT_EQ(index.median(v6, v6, v8), v6);
}

class TreeIndexLcaRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeIndexLcaRandom, AgreesWithParentWalk) {
  Rng rng(GetParam());
  for (int tree_trial = 0; tree_trial < 5; ++tree_trial) {
    const auto t = make_random_tree(1 + rng.index(120), rng);
    const perf::TreeIndex index(t);
    for (int q = 0; q < 200; ++q) {
      const auto u = static_cast<VertexId>(rng.index(t.n()));
      const auto v = static_cast<VertexId>(rng.index(t.n()));
      EXPECT_EQ(index.lca(u, v), walk_lca(t, u, v)) << "u=" << u << " v=" << v;
      EXPECT_EQ(index.distance(u, v), walk_distance(t, u, v));
    }
  }
}

TEST_P(TreeIndexLcaRandom, ExhaustiveOnSmallTrees) {
  Rng rng(GetParam() ^ 0xBEEF);
  const auto t = make_random_tree(2 + rng.index(16), rng);
  const perf::TreeIndex index(t);
  for (VertexId u = 0; u < t.n(); ++u) {
    for (VertexId v = 0; v < t.n(); ++v) {
      EXPECT_EQ(index.lca(u, v), walk_lca(t, u, v));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeIndexLcaRandom,
                         ::testing::Values(3, 14, 15, 92, 65, 35));

class TreeIndexRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TreeIndexRandom, DistanceMatchesBfs) {
  Rng rng(GetParam());
  const auto t = make_random_tree(2 + rng.index(60), rng);
  const perf::TreeIndex index(t);
  for (VertexId u = 0; u < t.n(); ++u) {
    const auto dist = bfs_dist(t, u);
    for (VertexId v = 0; v < t.n(); ++v) {
      EXPECT_EQ(index.distance(u, v), dist[v]) << "u=" << u << " v=" << v;
    }
  }
}

TEST_P(TreeIndexRandom, LcaIsDeepestCommonAncestor) {
  Rng rng(GetParam() ^ 0x9999);
  const auto t = make_random_tree(2 + rng.index(40), rng);
  const perf::TreeIndex index(t);
  auto ancestors = [&](VertexId v) {
    std::vector<VertexId> a;
    for (VertexId x = v;; x = t.parent(x)) {
      a.push_back(x);
      if (x == t.root()) break;
    }
    return a;
  };
  for (int trial = 0; trial < 50; ++trial) {
    const auto u = static_cast<VertexId>(rng.index(t.n()));
    const auto v = static_cast<VertexId>(rng.index(t.n()));
    const auto au = ancestors(u);
    const auto av = ancestors(v);
    VertexId best = t.root();
    for (const VertexId x : au) {
      if (std::find(av.begin(), av.end(), x) != av.end()) {
        if (t.depth(x) > t.depth(best)) best = x;
      }
    }
    EXPECT_EQ(index.lca(u, v), best);
    EXPECT_TRUE(index.is_ancestor(best, u));
    EXPECT_TRUE(index.is_ancestor(best, v));
  }
}

TEST_P(TreeIndexRandom, MedianLiesOnAllThreePaths) {
  Rng rng(GetParam() ^ 0x777);
  const auto t = make_random_tree(2 + rng.index(40), rng);
  const perf::TreeIndex index(t);
  const auto d = [&](VertexId u, VertexId v) { return bfs_dist(t, u)[v]; };
  for (int trial = 0; trial < 40; ++trial) {
    const auto a = static_cast<VertexId>(rng.index(t.n()));
    const auto b = static_cast<VertexId>(rng.index(t.n()));
    const auto c = static_cast<VertexId>(rng.index(t.n()));
    const VertexId m = index.median(a, b, c);
    EXPECT_EQ(d(a, m) + d(m, b), d(a, b));
    EXPECT_EQ(d(a, m) + d(m, c), d(a, c));
    EXPECT_EQ(d(b, m) + d(m, c), d(b, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TreeIndexRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

// --- The block RMQ where it can break ----------------------------------------

constexpr std::size_t kBlock = 64;  // the index's RMQ block size

/// Every pair on trees whose Euler tours (2n - 1 entries) end just before,
/// at and just past one and two block boundaries: 63, 65, 127 and 129
/// entries. A tour length is always odd, so the windows of length exactly
/// 64 and 128 occur inside the 65- and 129-entry tours. Shapes range from
/// the deepest (path) to the flattest (star, whose root recurs at every
/// other tour position and so ties across blocks).
TEST(TreeIndexBlocks, ExhaustiveAroundBlockBoundaries) {
  Rng rng(64);
  for (const std::size_t n : {32u, 33u, 64u, 65u}) {
    std::vector<Sample> shapes;
    shapes.push_back({"path", make_path(n)});
    shapes.push_back({"star", make_star(n)});
    shapes.push_back({"random", make_random_tree(n, rng)});
    shapes.push_back({"chainy", make_random_chainy_tree(n, rng, 0.7)});
    for (const Sample& s : shapes) {
      SCOPED_TRACE(s.name + "_" + std::to_string(n));
      const perf::TreeIndex index(s.tree);
      ASSERT_EQ(index.euler().size(), 2 * n - 1);
      for (VertexId u = 0; u < n; ++u) {
        for (VertexId v = 0; v < n; ++v) {
          ASSERT_EQ(index.lca(u, v), walk_lca(s.tree, u, v))
              << "u=" << u << " v=" << v;
        }
      }
    }
  }
}

/// Sampled queries on the 4096-vertex shapes the end-to-end benchmark runs
/// (uniform random and caterpillars), binned by how many RMQ blocks the
/// window between the two first occurrences touches: one (in-block masks
/// only), two (two partial blocks) and three or more (the block table too).
TEST(TreeIndexBlocks, SampledWindowsOnLargeTrees) {
  Rng rng(4096);
  std::vector<Sample> shapes;
  shapes.push_back({"random", make_random_tree(4096, rng)});
  shapes.push_back({"caterpillar_1", make_caterpillar(2048, 1)});
  shapes.push_back({"caterpillar_3", make_caterpillar(1024, 3)});
  for (const Sample& s : shapes) {
    SCOPED_TRACE(s.name);
    const perf::TreeIndex index(s.tree);
    // Vertices in first-occurrence (preorder) order, so nearby entries give
    // short windows.
    std::vector<VertexId> preorder(s.tree.n());
    for (VertexId v = 0; v < s.tree.n(); ++v) preorder[v] = v;
    std::sort(preorder.begin(), preorder.end(), [&](VertexId a, VertexId b) {
      return index.euler().first_occurrence(a) <
             index.euler().first_occurrence(b);
    });
    std::size_t by_span[3] = {0, 0, 0};
    for (int q = 0; q < 6000; ++q) {
      const std::size_t i = rng.index(preorder.size());
      // A third each of short, medium and arbitrary offsets.
      const std::size_t reach = q % 3 == 0 ? 24 : q % 3 == 1 ? 96
                                                            : preorder.size();
      const std::size_t j =
          std::min(preorder.size() - 1, i + rng.index(reach));
      const VertexId u = preorder[i];
      const VertexId v = preorder[j];
      const std::size_t a = index.euler().first_occurrence(u) - 1;
      const std::size_t b = index.euler().first_occurrence(v) - 1;
      const std::size_t span = b / kBlock - a / kBlock + 1;
      ++by_span[std::min<std::size_t>(span, 3) - 1];
      ASSERT_EQ(index.lca(u, v), walk_lca(s.tree, u, v))
          << "u=" << u << " v=" << v << " span=" << span;
      ASSERT_EQ(index.lca(v, u), index.lca(u, v));
      ASSERT_EQ(index.distance(u, v), walk_distance(s.tree, u, v));
    }
    EXPECT_GE(by_span[0], 100u) << "too few one-block windows";
    EXPECT_GE(by_span[1], 100u) << "too few two-block windows";
    EXPECT_GE(by_span[2], 100u) << "too few many-block windows";
  }
}

}  // namespace
}  // namespace treeaa

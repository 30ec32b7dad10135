// LabeledTree construction, canonicalization, and rooted-view queries —
// including cross-validation of path() and the diameter against BFS on
// random trees. The lca / distance / median queries live in perf::TreeIndex
// (tests/perf/tree_index_test.cpp).
#include "trees/labeled_tree.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <string>

#include "common/rng.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

LabeledTree figure3() { return make_figure3_tree(); }

TEST(LabeledTree, SingleVertex) {
  const auto t = LabeledTree::single("only");
  EXPECT_EQ(t.n(), 1u);
  EXPECT_EQ(t.label(0), "only");
  EXPECT_EQ(t.root(), 0u);
  EXPECT_EQ(t.parent(0), kNoVertex);
  EXPECT_EQ(t.depth(0), 0u);
  EXPECT_EQ(t.diameter(), 0u);
  EXPECT_TRUE(t.children(0).empty());
  EXPECT_EQ(t.path(0, 0), std::vector<VertexId>{0});
}

TEST(LabeledTree, IdsFollowLabelOrder) {
  const auto t = LabeledTree::from_edges({{"zebra", "apple"},
                                          {"apple", "mango"}});
  EXPECT_EQ(t.label(0), "apple");
  EXPECT_EQ(t.label(1), "mango");
  EXPECT_EQ(t.label(2), "zebra");
  EXPECT_EQ(t.root(), 0u);  // "apple" — lexicographically smallest
  EXPECT_EQ(*t.find("zebra"), 2u);
  EXPECT_FALSE(t.find("missing").has_value());
}

TEST(LabeledTree, NeighborsSortedAscending) {
  const auto t = figure3();
  for (VertexId v = 0; v < t.n(); ++v) {
    const auto nbrs = t.neighbors(v);
    EXPECT_TRUE(std::is_sorted(nbrs.begin(), nbrs.end()));
  }
}

TEST(LabeledTree, RejectsSelfLoop) {
  EXPECT_THROW(LabeledTree::from_edges({{"a", "a"}}), std::invalid_argument);
}

TEST(LabeledTree, RejectsDuplicateEdge) {
  EXPECT_THROW(LabeledTree::from_edges({{"a", "b"}, {"b", "a"}}),
               std::invalid_argument);
}

TEST(LabeledTree, RejectsCycle) {
  EXPECT_THROW(
      LabeledTree::from_edges({{"a", "b"}, {"b", "c"}, {"c", "a"}}),
      std::invalid_argument);
}

TEST(LabeledTree, RejectsDisconnected) {
  // 4 vertices, 3 edges, but two components (one edge duplicated
  // semantically as a cycle elsewhere would be caught by count; build a
  // genuinely impossible vertex/edge ratio instead).
  EXPECT_THROW(LabeledTree::from_edges({{"a", "b"}, {"c", "d"}}),
               std::invalid_argument);
}

TEST(LabeledTree, RejectsEmptyEdgeList) {
  EXPECT_THROW(LabeledTree::from_edges({}), std::invalid_argument);
}

TEST(LabeledTree, Figure3Structure) {
  const auto t = figure3();
  ASSERT_EQ(t.n(), 8u);
  const VertexId v1 = *t.find("v1");
  const VertexId v2 = *t.find("v2");
  const VertexId v3 = *t.find("v3");
  const VertexId v5 = *t.find("v5");
  const VertexId v6 = *t.find("v6");
  const VertexId v8 = *t.find("v8");
  EXPECT_EQ(t.root(), v1);
  EXPECT_EQ(t.parent(v2), v1);
  EXPECT_EQ(t.parent(v6), v3);
  EXPECT_EQ(t.depth(v6), 3u);
  EXPECT_EQ(t.path(v5, v6).size(), 4u);
  EXPECT_EQ(t.path(v6, v8)[2], v2);  // the turn at lca(v6, v8)
  EXPECT_EQ(t.diameter(), 4u);
}

TEST(LabeledTree, PathEndpointsAndAdjacency) {
  const auto t = figure3();
  const VertexId v6 = *t.find("v6");
  const VertexId v8 = *t.find("v8");
  const auto p = t.path(v6, v8);
  ASSERT_EQ(p.size(), 5u);
  EXPECT_EQ(p.front(), v6);
  EXPECT_EQ(p.back(), v8);
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const auto nbrs = t.neighbors(p[i]);
    EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), p[i + 1]));
  }
}

TEST(LabeledTree, VertexOutOfRangeThrows) {
  const auto t = figure3();
  EXPECT_THROW((void)t.label(99), std::invalid_argument);
  EXPECT_THROW((void)t.depth(99), std::invalid_argument);
  EXPECT_THROW((void)t.path(0, 99), std::invalid_argument);
  EXPECT_THROW((void)t.path(99, 0), std::invalid_argument);

  // The rooted-view queries name the bad id and n in the message.
  const auto expect_message = [](const auto& query) {
    try {
      query();
      ADD_FAILURE() << "no exception";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("REQUIRE failed: (v < n())"), std::string::npos)
          << what;
      EXPECT_NE(what.find("vertex id 8 out of range (n = 8)"),
                std::string::npos)
          << what;
    }
  };
  expect_message([&] { (void)t.children(8); });
  expect_message([&] { (void)t.parent(8); });
  expect_message([&] { (void)t.depth(8); });
}

// The flat rooted view: children(v) is an ascending run whose parent is v,
// and bfs_order() lists every vertex once, each after its parent.
void expect_flat_view(const LabeledTree& t) {
  std::size_t child_total = 0;
  for (VertexId v = 0; v < t.n(); ++v) {
    const auto kids = t.children(v);
    EXPECT_TRUE(std::is_sorted(kids.begin(), kids.end())) << "vertex " << v;
    for (const VertexId c : kids) {
      EXPECT_EQ(t.parent(c), v);
      EXPECT_EQ(t.depth(c), t.depth(v) + 1);
    }
    child_total += kids.size();
  }
  EXPECT_EQ(child_total, t.n() - 1);

  const auto order = t.bfs_order();
  ASSERT_EQ(order.size(), t.n());
  EXPECT_EQ(order.front(), t.root());
  std::vector<std::size_t> rank(t.n(), t.n());
  for (std::size_t i = 0; i < order.size(); ++i) {
    ASSERT_LT(order[i], t.n());
    EXPECT_EQ(rank[order[i]], t.n()) << "vertex " << order[i] << " twice";
    rank[order[i]] = i;
  }
  for (VertexId v = 0; v < t.n(); ++v) {
    if (v == t.root()) continue;
    EXPECT_LT(rank[t.parent(v)], rank[v]) << "vertex " << v;
  }
}

TEST(LabeledTree, FlatRootedView) {
  expect_flat_view(LabeledTree::single("only"));
  expect_flat_view(figure3());
  Rng rng(77);
  for (const TreeFamily f : all_tree_families()) {
    for (const std::size_t n : {2u, 3u, 17u, 64u, 200u}) {
      SCOPED_TRACE(tree_family_name(f));
      expect_flat_view(make_family_tree(f, n, rng));
    }
  }
  expect_flat_view(make_random_tree(4096, rng));
  expect_flat_view(make_caterpillar(2048, 1));
}

// --- Randomized cross-validation against BFS ------------------------------

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

class LabeledTreeRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LabeledTreeRandom, PathIsShortestAndSimple) {
  Rng rng(GetParam() ^ 0x1234);
  const auto t = make_random_tree(2 + rng.index(60), rng);
  for (int trial = 0; trial < 30; ++trial) {
    const auto u = static_cast<VertexId>(rng.index(t.n()));
    const auto v = static_cast<VertexId>(rng.index(t.n()));
    const auto p = t.path(u, v);
    EXPECT_EQ(p.size(), bfs_dist(t, u)[v] + 1);
    EXPECT_EQ(p.front(), u);
    EXPECT_EQ(p.back(), v);
    std::vector<VertexId> sorted = p;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::adjacent_find(sorted.begin(), sorted.end()), sorted.end());
  }
}

TEST_P(LabeledTreeRandom, DiameterMatchesBruteForce) {
  Rng rng(GetParam() ^ 0xABCD);
  const auto t = make_random_tree(2 + rng.index(40), rng);
  std::uint32_t best = 0;
  for (VertexId u = 0; u < t.n(); ++u) {
    for (const std::uint32_t d : bfs_dist(t, u)) best = std::max(best, d);
  }
  EXPECT_EQ(t.diameter(), best);
  const auto [a, b] = t.diameter_endpoints();
  EXPECT_EQ(bfs_dist(t, a)[b], best);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LabeledTreeRandom,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace treeaa

// Convex hulls, projections (Lemma 1 / Figures 1-2) and path utilities.
#include "trees/paths.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "perf/tree_index.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

// The tree of Figure 1: hull of {u1, u2, u3} = {u1, u2, u3, u4, u5}.
// Reconstructed: u4 and u5 are interior vertices connecting the three u's.
TEST(ConvexHull, Figure1WorkedExample) {
  const auto t = LabeledTree::from_edges({{"u4", "u1"},
                                          {"u4", "u2"},
                                          {"u4", "u5"},
                                          {"u5", "u3"},
                                          {"u5", "w1"},
                                          {"u1", "w2"}});
  const std::vector<VertexId> s{*t.find("u1"), *t.find("u2"), *t.find("u3")};
  const auto hull = convex_hull(t, s);
  std::vector<std::string> labels;
  for (const VertexId v : hull) labels.push_back(t.label(v));
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"u1", "u2", "u3", "u4", "u5"}));
}

TEST(ConvexHull, SingletonIsItself) {
  const auto t = make_figure3_tree();
  const std::vector<VertexId> s{*t.find("v6")};
  EXPECT_EQ(convex_hull(t, s), s);
}

TEST(ConvexHull, DuplicatesIgnored) {
  const auto t = make_path(5);
  const std::vector<VertexId> s{0, 0, 4, 4, 0};
  const auto hull = convex_hull(t, s);
  EXPECT_EQ(hull.size(), 5u);
}

TEST(ConvexHull, Figure4HonestHull) {
  // Paper §6: honest inputs v3, v6, v5 have convex hull {v5, v2, v3, v6}.
  const auto t = make_figure3_tree();
  const std::vector<VertexId> s{*t.find("v3"), *t.find("v6"), *t.find("v5")};
  auto hull = convex_hull(t, s);
  std::vector<std::string> labels;
  for (const VertexId v : hull) labels.push_back(t.label(v));
  std::sort(labels.begin(), labels.end());
  EXPECT_EQ(labels, (std::vector<std::string>{"v2", "v3", "v5", "v6"}));
  // v4 and v8 are outside the hull (the paper's observation).
  EXPECT_FALSE(in_hull(t, s, *t.find("v4")));
  EXPECT_FALSE(in_hull(t, s, *t.find("v8")));
}

TEST(ConvexHull, EmptySetThrows) {
  const auto t = make_path(3);
  EXPECT_THROW((void)convex_hull(t, {}), std::invalid_argument);
}

class HullRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(HullRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = make_random_tree(1 + rng.index(40), rng);
    std::vector<VertexId> s;
    const std::size_t k = 1 + rng.index(6);
    for (std::size_t i = 0; i < k; ++i) {
      s.push_back(static_cast<VertexId>(rng.index(t.n())));
    }
    EXPECT_EQ(convex_hull(t, s), convex_hull_bruteforce(t, s));
  }
}

TEST_P(HullRandom, MembershipAgreesWithHull) {
  Rng rng(GetParam() ^ 0x55);
  const auto t = make_random_tree(2 + rng.index(30), rng);
  std::vector<VertexId> s;
  for (int i = 0; i < 4; ++i) {
    s.push_back(static_cast<VertexId>(rng.index(t.n())));
  }
  std::vector<bool> in(t.n(), false);
  for (const VertexId v : convex_hull(t, s)) in[v] = true;
  for (VertexId v = 0; v < t.n(); ++v) {
    EXPECT_EQ(in_hull(t, s, v), in[v]) << "vertex " << v;
  }
}

TEST_P(HullRandom, HullIsConnected) {
  Rng rng(GetParam() ^ 0xAA);
  const auto t = make_random_tree(2 + rng.index(30), rng);
  std::vector<VertexId> s;
  for (int i = 0; i < 5; ++i) {
    s.push_back(static_cast<VertexId>(rng.index(t.n())));
  }
  const auto hull = convex_hull(t, s);
  // Connectivity: every hull vertex except one has a hull neighbor on the
  // path toward the first hull vertex.
  std::vector<bool> in(t.n(), false);
  for (const VertexId v : hull) in[v] = true;
  for (const VertexId v : hull) {
    const auto path_to_anchor = t.path(v, hull.front());
    for (const VertexId x : path_to_anchor) {
      EXPECT_TRUE(in[x]) << "hull not connected at " << x;
    }
  }
}

TEST_P(HullRandom, HullIsIdempotentAndMonotone) {
  Rng rng(GetParam() ^ 0xCC);
  const auto t = make_random_tree(2 + rng.index(30), rng);
  std::vector<VertexId> s;
  for (int i = 0; i < 4; ++i) {
    s.push_back(static_cast<VertexId>(rng.index(t.n())));
  }
  const auto hull = convex_hull(t, s);
  // Idempotence: <<S>> = <S>.
  EXPECT_EQ(convex_hull(t, hull), hull);
  // Monotonicity: S ⊆ S' implies <S> ⊆ <S'>.
  auto bigger = s;
  bigger.push_back(static_cast<VertexId>(rng.index(t.n())));
  const auto bigger_hull = convex_hull(t, bigger);
  for (const VertexId v : hull) {
    EXPECT_TRUE(std::binary_search(bigger_hull.begin(), bigger_hull.end(),
                                   v));
  }
  // Containment: S ⊆ <S>.
  for (const VertexId v : s) {
    EXPECT_TRUE(std::binary_search(hull.begin(), hull.end(), v));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, HullRandom,
                         ::testing::Values(21, 42, 63, 84, 105, 126));

// --- Projections (Figure 2 / Lemma 1) --------------------------------------

TEST(Projection, Figure2WorkedExample) {
  // Path v1..v8; u1 hangs below v3, u2 below v4, u3 below v6 (as in the
  // figure: each u_i projects onto the corresponding v).
  const auto t = LabeledTree::from_edges(
      {{"v1", "v2"}, {"v2", "v3"}, {"v3", "v4"}, {"v4", "v5"},
       {"v5", "v6"}, {"v6", "v7"}, {"v7", "v8"},
       {"v3", "u1"}, {"v4", "x1"}, {"x1", "u2"}, {"v6", "u3"}});
  std::vector<VertexId> p;
  for (const char* l : {"v1", "v2", "v3", "v4", "v5", "v6", "v7", "v8"}) {
    p.push_back(*t.find(l));
  }
  ASSERT_TRUE(is_simple_path(t, p));
  const perf::TreeIndex index(t);
  const auto project = [&](const char* label) {
    return index.project_onto_path(p.front(), p.back(), *t.find(label));
  };
  EXPECT_EQ(project("u1"), *t.find("v3"));
  EXPECT_EQ(project("u2"), *t.find("v4"));
  EXPECT_EQ(project("u3"), *t.find("v6"));
  // A vertex on the path projects to itself.
  EXPECT_EQ(project("v5"), *t.find("v5"));
  // The brute-force scan agrees on the worked example.
  EXPECT_EQ(project_onto_path_bruteforce(t, p, *t.find("u2")), *t.find("v4"));
}

TEST(Projection, EmptyPathThrows) {
  const auto t = make_path(3);
  EXPECT_THROW((void)project_onto_path_bruteforce(t, {}, 0),
               std::invalid_argument);
}

class ProjectionRandom : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProjectionRandom, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = make_random_tree(2 + rng.index(50), rng);
    const perf::TreeIndex index(t);
    const auto a = static_cast<VertexId>(rng.index(t.n()));
    const auto b = static_cast<VertexId>(rng.index(t.n()));
    const auto p = t.path(a, b);
    for (VertexId v = 0; v < t.n(); ++v) {
      const VertexId fast = index.project_onto_path(a, b, v);
      const VertexId slow = project_onto_path_bruteforce(t, p, v);
      // The minimizer is unique on a tree, so the two must agree exactly.
      EXPECT_EQ(fast, slow) << "v=" << v;
    }
  }
}

// Lemma 1: if the path intersects <S>, every projection of an S-vertex lies
// in P ∩ <S>.
TEST_P(ProjectionRandom, Lemma1ProjectionInHull) {
  Rng rng(GetParam() ^ 0xE1);
  for (int trial = 0; trial < 10; ++trial) {
    const auto t = make_random_tree(2 + rng.index(40), rng);
    const perf::TreeIndex index(t);
    std::vector<VertexId> s;
    for (int i = 0; i < 4; ++i) {
      s.push_back(static_cast<VertexId>(rng.index(t.n())));
    }
    // Build a path guaranteed to intersect <S>: start it at an S-vertex.
    const auto far_end = static_cast<VertexId>(rng.index(t.n()));
    const auto p = t.path(s[0], far_end);
    for (const VertexId v : s) {
      const VertexId proj = index.project_onto_path(s[0], far_end, v);
      EXPECT_TRUE(in_hull(t, s, proj)) << "projection " << proj;
      EXPECT_NE(std::find(p.begin(), p.end(), proj), p.end());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProjectionRandom,
                         ::testing::Values(7, 17, 27, 37, 47));

// --- Path utilities ---------------------------------------------------------

TEST(PathUtils, IsSimplePath) {
  const auto t = make_path(4);
  EXPECT_TRUE(is_simple_path(t, std::vector<VertexId>{0, 1, 2, 3}));
  EXPECT_TRUE(is_simple_path(t, std::vector<VertexId>{2}));
  EXPECT_FALSE(is_simple_path(t, std::vector<VertexId>{}));
  EXPECT_FALSE(is_simple_path(t, std::vector<VertexId>{0, 2}));     // gap
  EXPECT_FALSE(is_simple_path(t, std::vector<VertexId>{0, 1, 0}));  // repeat
  EXPECT_FALSE(is_simple_path(t, std::vector<VertexId>{0, 99}));    // bogus id
}

TEST(PathUtils, IndexInPathIsOneBased) {
  const std::vector<VertexId> p{5, 3, 8};
  EXPECT_EQ(index_in_path(p, 5), 1u);
  EXPECT_EQ(index_in_path(p, 3), 2u);
  EXPECT_EQ(index_in_path(p, 8), 3u);
  EXPECT_THROW((void)index_in_path(p, 7), std::invalid_argument);
}

}  // namespace
}  // namespace treeaa

// ListConstruction (Lemma 2): the worked example of Figure 3 plus all four
// lemma properties as randomized property tests.
#include "trees/euler.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "common/rng.h"
#include "perf/tree_index.h"
#include "trees/generators.h"
#include "trees/labeled_tree.h"

namespace treeaa {
namespace {

TEST(EulerList, Figure3WorkedExample) {
  const auto t = make_figure3_tree();
  const EulerList L(t);
  const std::vector<std::string> expected = {
      "v1", "v2", "v3", "v6", "v3", "v7", "v3", "v2",
      "v4", "v8", "v4", "v2", "v5", "v2", "v1"};
  ASSERT_EQ(L.size(), expected.size());
  for (std::size_t i = 1; i <= L.size(); ++i) {
    EXPECT_EQ(t.label(L.at(i)), expected[i - 1]) << "position " << i;
  }
}

TEST(EulerList, Figure3OccurrenceSets) {
  const auto t = make_figure3_tree();
  const EulerList L(t);
  auto occ = [&](const char* label) {
    const auto o = L.occurrences(*t.find(label));
    return std::vector<std::size_t>(o.begin(), o.end());
  };
  // The index sets quoted in the paper's §6 discussion of Figure 4.
  EXPECT_EQ(occ("v3"), (std::vector<std::size_t>{3, 5, 7}));
  EXPECT_EQ(occ("v6"), (std::vector<std::size_t>{4}));
  EXPECT_EQ(occ("v5"), (std::vector<std::size_t>{13}));
  EXPECT_EQ(occ("v4"), (std::vector<std::size_t>{9, 11}));
  EXPECT_EQ(occ("v8"), (std::vector<std::size_t>{10}));
}

TEST(EulerList, SingleVertexTree) {
  const auto t = LabeledTree::single("a");
  const EulerList L(t);
  EXPECT_EQ(L.size(), 1u);
  EXPECT_EQ(L.at(1), 0u);
  EXPECT_EQ(L.first_occurrence(0), 1u);
  EXPECT_EQ(L.last_occurrence(0), 1u);
}

TEST(EulerList, IndexOutOfRangeThrows) {
  const auto t = make_figure3_tree();
  const EulerList L(t);
  EXPECT_THROW((void)L.at(0), std::invalid_argument);
  EXPECT_THROW((void)L.at(L.size() + 1), std::invalid_argument);
}

class EulerProperty : public ::testing::TestWithParam<std::uint64_t> {
 protected:
  LabeledTree make_tree() {
    Rng rng(GetParam());
    const std::size_t n = 1 + rng.index(80);
    switch (rng.index(3)) {
      case 0: return make_random_tree(std::max<std::size_t>(n, 1), rng);
      case 1: return make_random_chainy_tree(std::max<std::size_t>(n, 1),
                                             rng, 0.7);
      default:
        return n >= 2 ? make_star(n) : LabeledTree::single("s");
    }
  }
};

// Lemma 2, property 1: consecutive list entries are adjacent.
TEST_P(EulerProperty, ConsecutiveEntriesAdjacent) {
  const auto t = make_tree();
  const EulerList L(t);
  for (std::size_t i = 1; i < L.size(); ++i) {
    const auto nbrs = t.neighbors(L.at(i));
    EXPECT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), L.at(i + 1)))
        << "positions " << i << "," << i + 1;
  }
}

// Lemma 2, property 2: |L| <= 2|V| and every vertex occurs.
TEST_P(EulerProperty, SizeBoundAndCoverage) {
  const auto t = make_tree();
  const EulerList L(t);
  EXPECT_LE(L.size(), 2 * t.n());
  EXPECT_EQ(L.size(), 2 * t.n() - 1);  // this construction is exact
  for (VertexId v = 0; v < t.n(); ++v) {
    EXPECT_FALSE(L.occurrences(v).empty()) << "vertex " << v;
    // Occurrence lists must be ascending and consistent with the list.
    const auto occ = L.occurrences(v);
    EXPECT_TRUE(std::is_sorted(occ.begin(), occ.end()));
    for (const std::size_t i : occ) EXPECT_EQ(L.at(i), v);
  }
}

// Lemma 2, property 3: u is in the subtree of v iff L(u) ⊆ [min L(v),
// max L(v)].
TEST_P(EulerProperty, SubtreeWindowCharacterization) {
  const auto t = make_tree();
  const EulerList L(t);
  const perf::TreeIndex index(t);
  for (VertexId v = 0; v < t.n(); ++v) {
    const std::size_t lo = L.first_occurrence(v);
    const std::size_t hi = L.last_occurrence(v);
    for (VertexId u = 0; u < t.n(); ++u) {
      const auto occ = L.occurrences(u);
      const bool inside = std::all_of(
          occ.begin(), occ.end(),
          [&](std::size_t i) { return lo <= i && i <= hi; });
      EXPECT_EQ(inside, index.is_ancestor(v, u))
          << "v=" << v << " u=" << u;
    }
  }
}

// Lemma 2, property 4: the LCA of v, v' appears in every index window
// between an occurrence of v and one of v'.
TEST_P(EulerProperty, LcaInEveryWindow) {
  const auto t = make_tree();
  const EulerList L(t);
  const perf::TreeIndex index(t);
  Rng rng(GetParam() ^ 0xF00D);
  for (int trial = 0; trial < 50; ++trial) {
    const auto v = static_cast<VertexId>(rng.index(t.n()));
    const auto u = static_cast<VertexId>(rng.index(t.n()));
    const VertexId w = index.lca(u, v);
    for (const std::size_t i : L.occurrences(v)) {
      for (const std::size_t j : L.occurrences(u)) {
        const auto [a, b] = std::minmax(i, j);
        bool found = false;
        for (std::size_t k = a; k <= b && !found; ++k) {
          found = L.at(k) == w;
        }
        EXPECT_TRUE(found) << "lca " << w << " missing in window [" << a
                           << "," << b << "]";
      }
    }
  }
}

// Determinism: every party building the list gets the identical result.
TEST_P(EulerProperty, ConstructionIsDeterministic) {
  const auto t = make_tree();
  const EulerList a(t);
  const EulerList b(t);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 1; i <= a.size(); ++i) EXPECT_EQ(a.at(i), b.at(i));
}

INSTANTIATE_TEST_SUITE_P(Seeds, EulerProperty,
                         ::testing::Values(11, 22, 33, 44, 55, 66, 77, 88,
                                           99, 110));

// ListConstruction exactly as the paper writes it: record v, then for each
// neighbour other than the one we came from, in ascending label order,
// recurse and record v again. Reads only neighbors(), not the rooted view.
void list_construction(const LabeledTree& t, VertexId v, VertexId from,
                       std::vector<VertexId>& out) {
  out.push_back(v);
  for (const VertexId w : t.neighbors(v)) {
    if (w == from) continue;
    list_construction(t, w, v, out);
    out.push_back(v);
  }
}

void expect_matches_reference(const LabeledTree& t) {
  std::vector<VertexId> ref;
  list_construction(t, t.root(), kNoVertex, ref);
  std::vector<std::vector<std::size_t>> ref_occ(t.n());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    ref_occ[ref[i]].push_back(i + 1);
  }

  const EulerList L(t);
  const auto raw = L.raw();
  ASSERT_EQ(std::vector<VertexId>(raw.begin(), raw.end()), ref)
      << "n = " << t.n();
  for (VertexId v = 0; v < t.n(); ++v) {
    const auto occ = L.occurrences(v);
    ASSERT_EQ(std::vector<std::size_t>(occ.begin(), occ.end()), ref_occ[v])
        << "n = " << t.n() << ", vertex " << v;
  }
}

TEST(EulerReference, EveryFamilyAtSmallSizes) {
  Rng rng(2024);
  expect_matches_reference(LabeledTree::single("a"));
  for (const TreeFamily f : all_tree_families()) {
    for (std::size_t n = 2; n <= 40; ++n) {
      SCOPED_TRACE(tree_family_name(f));
      expect_matches_reference(make_family_tree(f, n, rng));
    }
  }
  for (std::size_t n = 1; n <= 40; ++n) {
    expect_matches_reference(make_random_chainy_tree(n, rng, 0.7));
    expect_matches_reference(make_broom(1 + n / 2, n / 2));
  }
}

TEST(EulerReference, LargeTrees) {
  constexpr std::size_t n = 4096;
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    Rng rng(seed);
    expect_matches_reference(make_random_tree(n, rng));
  }
  for (const std::size_t legs : {1u, 2u, 3u}) {
    expect_matches_reference(make_caterpillar(n / (1 + legs), legs));
  }
  expect_matches_reference(make_path(n));
  expect_matches_reference(make_star(n));
}

}  // namespace
}  // namespace treeaa

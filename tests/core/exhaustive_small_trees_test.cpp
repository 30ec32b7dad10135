// Exhaustive structural coverage: EVERY labeled tree on 2..5 vertices
// (enumerated via Prüfer sequences — k^(k-2) trees per size), with sampled
// input assignments, must satisfy all three AA properties, for both the
// main protocol and the baselines. Small cases are where off-by-one index
// bugs (1-based Euler lists, path positions, the Figure-5 clamp) live.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <utility>

#include "core/api.h"
#include "harness/runner.h"
#include "trees/generators.h"
#include "trees/labeled_tree.h"

namespace treeaa::core {
namespace {

/// Builds the labeled tree decoded from a Prüfer sequence over k vertices.
LabeledTree tree_from_pruefer(const std::vector<std::size_t>& code,
                              std::size_t k) {
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < k; ++i) {
    std::string label = "v";
    label += std::to_string(i);
    labels.push_back(std::move(label));
  }
  std::vector<std::size_t> deg(k, 1);
  for (const std::size_t x : code) ++deg[x];
  std::vector<std::pair<std::string, std::string>> edges;
  std::size_t ptr = 0;
  while (deg[ptr] != 1) ++ptr;
  std::size_t leaf = ptr;
  for (const std::size_t v : code) {
    edges.emplace_back(labels[leaf], labels[v]);
    if (--deg[v] == 1 && v < ptr) {
      leaf = v;
    } else {
      ++ptr;
      while (deg[ptr] != 1) ++ptr;
      leaf = ptr;
    }
  }
  edges.emplace_back(labels[leaf], labels[k - 1]);
  return LabeledTree::from_edges(edges);
}

/// Enumerates every Prüfer sequence of length k - 2 over [0, k).
std::vector<LabeledTree> all_trees(std::size_t k) {
  std::vector<LabeledTree> trees;
  if (k == 2) {
    trees.push_back(LabeledTree::from_edges({{"v0", "v1"}}));
    return trees;
  }
  std::vector<std::size_t> code(k - 2, 0);
  while (true) {
    trees.push_back(tree_from_pruefer(code, k));
    std::size_t i = 0;
    while (i < code.size() && code[i] == k - 1) code[i++] = 0;
    if (i == code.size()) break;
    ++code[i];
  }
  return trees;
}

class ExhaustiveSmallTrees : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExhaustiveSmallTrees, TreeAAHoldsOnEveryTreeShape) {
  const std::size_t k = GetParam();
  const auto trees = all_trees(k);
  EXPECT_EQ(trees.size(),
            k == 2 ? 1u
                   : static_cast<std::size_t>(
                         std::pow(static_cast<double>(k),
                                  static_cast<double>(k - 2))));
  Rng rng(0xE0 + k);
  const std::size_t n = 4, t = 1;
  for (const auto& tree : trees) {
    for (int assignment = 0; assignment < 8; ++assignment) {
      const auto inputs = harness::random_vertex_inputs(tree, n, rng);
      const auto run = run_tree_aa(tree, inputs, t);
      const auto check =
          check_agreement(tree, inputs, run.honest_outputs());
      ASSERT_TRUE(check.ok())
          << "k=" << k << " tree root-parents failed, assignment "
          << assignment << " max d " << check.max_pairwise_distance;
    }
  }
}

TEST_P(ExhaustiveSmallTrees, BaselineHoldsOnEveryTreeShape) {
  const std::size_t k = GetParam();
  Rng rng(0xB0 + k);
  const std::size_t n = 4, t = 1;
  for (const auto& tree : all_trees(k)) {
    const auto inputs = harness::random_vertex_inputs(tree, n, rng);
    const auto run = harness::run_iterated_tree_aa(tree, n, t, inputs);
    ASSERT_TRUE(
        check_agreement(tree, inputs, run.honest_outputs()).ok())
        << "k=" << k;
  }
}

TEST_P(ExhaustiveSmallTrees, EulerPropertiesOnEveryTreeShape) {
  const std::size_t k = GetParam();
  for (const auto& tree : all_trees(k)) {
    const EulerList L(tree);
    ASSERT_EQ(L.size(), 2 * k - 1);
    for (std::size_t i = 1; i < L.size(); ++i) {
      const auto nbrs = tree.neighbors(L.at(i));
      ASSERT_TRUE(std::binary_search(nbrs.begin(), nbrs.end(), L.at(i + 1)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, ExhaustiveSmallTrees,
                         ::testing::Values(2, 3, 4, 5));

}  // namespace
}  // namespace treeaa::core

// The experiment harness itself: input generators and runner plumbing.
#include "harness/runner.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "trees/generators.h"

namespace treeaa::harness {
namespace {

TEST(Generators, SpreadVertexInputsAlternateDiameterEndpoints) {
  const auto tree = make_path(10);
  const auto inputs = spread_vertex_inputs(tree, 5);
  const auto [a, b] = tree.diameter_endpoints();
  ASSERT_EQ(inputs.size(), 5u);
  EXPECT_EQ(inputs[0], a);
  EXPECT_EQ(inputs[1], b);
  EXPECT_EQ(inputs[2], a);
  EXPECT_EQ(tree.path(inputs[0], inputs[1]).size(), tree.diameter() + 1);
}

TEST(Generators, RandomVertexInputsAreValidVertices) {
  Rng rng(3);
  const auto tree = make_star(12);
  const auto inputs = random_vertex_inputs(tree, 50, rng);
  for (const VertexId v : inputs) EXPECT_LT(v, tree.n());
  // Not all identical (star has 12 vertices, 50 draws).
  EXPECT_GT(std::set<VertexId>(inputs.begin(), inputs.end()).size(), 1u);
}

TEST(Generators, SpreadRealInputsAlternate) {
  const auto inputs = spread_real_inputs(4, -5.0, 5.0);
  EXPECT_EQ(inputs, (std::vector<double>{-5, 5, -5, 5}));
}

TEST(Generators, RandomRealInputsInRange) {
  Rng rng(9);
  for (const double v : random_real_inputs(100, 2.0, 3.0, rng)) {
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Runner, RejectsInputArityMismatch) {
  realaa::Config cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.eps = 1.0;
  cfg.known_range = 10.0;
  EXPECT_THROW((void)run_real_aa(cfg, {1.0, 2.0}), std::invalid_argument);
  const auto tree = make_path(4);
  EXPECT_THROW((void)run_paths_finder(tree, 4, 1, {0, 1}),
               std::invalid_argument);
}

TEST(Runner, RealRunAccessors) {
  realaa::Config cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.eps = 1.0;
  cfg.known_range = 8.0;
  const auto run = run_real_aa(cfg, {0.0, 8.0, 2.0, 6.0});
  EXPECT_EQ(run.honest_outputs().size(), 4u);
  EXPECT_GE(run.output_range(), 0.0);
  EXPECT_EQ(run.histories.size(), 4u);
  EXPECT_TRUE(run.corrupt.empty());
}

}  // namespace
}  // namespace treeaa::harness

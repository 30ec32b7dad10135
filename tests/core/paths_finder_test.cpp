// PathsFinder (Lemma 4): both guarantees — hull intersection and
// prefix-by-at-most-one-edge — across tree families, seeds and adversaries.
#include "core/paths_finder.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "harness/runner.h"
#include "realaa/adversaries.h"
#include "sim/engine.h"
#include "sim/strategies.h"
#include "trees/generators.h"
#include "trees/paths.h"

namespace treeaa::core {
namespace {

void expect_lemma4(const LabeledTree& tree,
                   const std::vector<VertexId>& honest_inputs,
                   const std::vector<std::vector<VertexId>>& honest_paths) {
  ASSERT_FALSE(honest_paths.empty());
  // Property 1: every path is a root-anchored simple path intersecting the
  // honest inputs' convex hull.
  for (const auto& p : honest_paths) {
    ASSERT_FALSE(p.empty());
    EXPECT_EQ(p.front(), tree.root());
    EXPECT_TRUE(is_simple_path(tree, p));
    const bool intersects = std::any_of(
        p.begin(), p.end(),
        [&](VertexId v) { return in_hull(tree, honest_inputs, v); });
    EXPECT_TRUE(intersects);
  }
  // Property 2: all paths are prefixes of the longest one, and lengths
  // differ by at most one edge.
  const auto longest = *std::max_element(
      honest_paths.begin(), honest_paths.end(),
      [](const auto& a, const auto& b) { return a.size() < b.size(); });
  for (const auto& p : honest_paths) {
    EXPECT_GE(p.size() + 1, longest.size());
    for (std::size_t i = 0; i < p.size(); ++i) {
      EXPECT_EQ(p[i], longest[i]) << "divergence at position " << i;
    }
  }
}

TEST(PathsFinder, HonestRunOnFigure3) {
  const auto tree = make_figure3_tree();
  const std::size_t n = 4, t = 1;
  // Inputs from the paper's §6 example: v3, v6, v5 (+ v3 again to fill n).
  const std::vector<VertexId> inputs{*tree.find("v3"), *tree.find("v6"),
                                     *tree.find("v5"), *tree.find("v3")};
  const auto run = harness::run_paths_finder(tree, n, t, inputs);
  expect_lemma4(tree, inputs, run.honest_paths());
}

TEST(PathsFinder, SingleVertexTree) {
  const auto tree = LabeledTree::single("r");
  const std::vector<VertexId> inputs{0, 0, 0, 0};
  const auto run = harness::run_paths_finder(tree, 4, 1, inputs);
  EXPECT_EQ(run.rounds, 0u);
  for (const auto& p : run.honest_paths()) {
    EXPECT_EQ(p, std::vector<VertexId>{0});
  }
}

TEST(PathsFinder, RoundBudgetMatchesLemma4) {
  // R_PathsFinder = R_RealAA(<= 2|V|, 1).
  Rng rng(3);
  const auto tree = make_random_tree(200, rng);
  const auto cfg = paths_finder_config(tree, 7, 2, {});
  EXPECT_EQ(cfg.known_range, static_cast<double>(2 * tree.n() - 2));
  const std::vector<VertexId> inputs(7, 0);
  const auto run = harness::run_paths_finder(tree, 7, 2, inputs);
  EXPECT_EQ(run.rounds, cfg.rounds());
  // Theorem 3 guard: rounds within the closed-form bound for D = 2|V|.
  EXPECT_LE(cfg.rounds(), realaa::theorem3_round_bound(
                              static_cast<double>(2 * tree.n()), 1.0));
}

TEST(PathsFinder, AllSameInputYieldsPathToThatVertexSubtree) {
  Rng rng(5);
  const auto tree = make_random_tree(60, rng);
  const auto v = static_cast<VertexId>(rng.index(tree.n()));
  const std::vector<VertexId> inputs(7, v);
  const auto run = harness::run_paths_finder(tree, 7, 2, inputs);
  // Hull of {v} is {v}: every path must contain v... more precisely it must
  // intersect {v}, i.e. pass through v.
  for (const auto& p : run.honest_paths()) {
    EXPECT_NE(std::find(p.begin(), p.end(), v), p.end());
  }
}

// §6 "without loss of generality": the Euler index fed into RealAA may be
// ANY member of L(v_IN) — and different honest parties may pick
// differently. Mix min- and max-occurrence choosers in one execution and
// check Lemma 4 still holds.
TEST(PathsFinder, MixedIndexChoicesPreserveLemma4) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Rng rng(seed * 13);
    const auto tree = make_random_tree(10 + rng.index(80), rng);
    const perf::TreeIndex index(tree);
    const std::size_t n = 7, t = 2;
    const auto inputs = harness::random_vertex_inputs(tree, n, rng);

    sim::Engine engine(n, t);
    std::vector<PathsFinderProcess*> procs(n);
    for (PartyId p = 0; p < n; ++p) {
      PathsFinderOptions opts;
      opts.index_choice = p % 2 == 0 ? EulerIndexChoice::kMinOccurrence
                                     : EulerIndexChoice::kMaxOccurrence;
      auto proc = std::make_unique<PathsFinderProcess>(index, n, t, p,
                                                       inputs[p], opts);
      procs[p] = proc.get();
      engine.set_process(p, std::move(proc));
    }
    engine.run(static_cast<Round>(
        paths_finder_config(tree, n, t, {}).rounds()));

    std::vector<std::vector<VertexId>> paths;
    for (PartyId p = 0; p < n; ++p) {
      ASSERT_TRUE(procs[p]->path().has_value());
      paths.push_back(*procs[p]->path());
    }
    expect_lemma4(tree, inputs, paths);
  }
}

struct SweepParam {
  TreeFamily family;
  std::uint64_t seed;
};

class PathsFinderSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(PathsFinderSweep, Lemma4UnderAdversaries) {
  const auto [family, seed] = GetParam();
  Rng rng(seed);
  const auto tree = make_family_tree(family, 10 + rng.index(120), rng);
  const std::size_t n = 4 + rng.index(10);
  const std::size_t t = (n - 1) / 3;
  const auto inputs = harness::random_vertex_inputs(tree, n, rng);
  const auto victims = sim::random_parties(n, t, rng);

  std::unique_ptr<sim::Adversary> adv;
  switch (seed % 3) {
    case 0:
      adv = std::make_unique<sim::SilentAdversary>(victims);
      break;
    case 1:
      adv = std::make_unique<sim::FuzzAdversary>(victims, seed, 16, 32);
      break;
    default: {
      realaa::SplitAdversary::Options opts;
      opts.config = paths_finder_config(tree, n, t, {});
      opts.corrupt = victims;
      adv = std::make_unique<realaa::SplitAdversary>(std::move(opts));
      break;
    }
  }
  auto run = harness::run_paths_finder(tree, n, t, inputs, std::move(adv));

  std::vector<VertexId> honest_inputs;
  for (PartyId p = 0; p < n; ++p) {
    if (std::find(run.corrupt.begin(), run.corrupt.end(), p) ==
        run.corrupt.end()) {
      honest_inputs.push_back(inputs[p]);
    }
  }
  expect_lemma4(tree, honest_inputs, run.honest_paths());
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  std::uint64_t seed = 1;
  for (const TreeFamily f : all_tree_families()) {
    for (int i = 0; i < 4; ++i) params.push_back({f, seed++});
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Families, PathsFinderSweep,
                         ::testing::ValuesIn(sweep_params()));

}  // namespace
}  // namespace treeaa::core

// The high-level API: run_tree_aa plumbing and check_agreement semantics.
#include "core/api.h"

#include <gtest/gtest.h>

#include "perf/tree_index.h"
#include "sim/engine.h"
#include "sim/strategies.h"
#include "sim/trace.h"
#include "trees/generators.h"

namespace treeaa::core {
namespace {

TEST(CheckAgreement, AcceptsExactAgreementOnHullVertex) {
  const auto tree = make_path(5);
  const auto check = check_agreement(tree, {0, 4}, {2, 2, 2});
  EXPECT_TRUE(check.valid);
  EXPECT_TRUE(check.one_agreement);
  EXPECT_EQ(check.max_pairwise_distance, 0u);
  EXPECT_TRUE(check.ok());
}

TEST(CheckAgreement, AcceptsAdjacentOutputs) {
  const auto tree = make_path(5);
  const auto check = check_agreement(tree, {0, 4}, {2, 3});
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(check.max_pairwise_distance, 1u);
}

TEST(CheckAgreement, RejectsOutputOutsideHull) {
  const auto tree = make_star(5);
  // Hull of two leaves is {leaf, center, leaf}; another leaf is outside.
  const auto check = check_agreement(tree, {1, 2}, {3});
  EXPECT_FALSE(check.valid);
}

TEST(CheckAgreement, RejectsFarOutputs) {
  const auto tree = make_path(6);
  const auto check = check_agreement(tree, {0, 5}, {1, 4});
  EXPECT_TRUE(check.valid);
  EXPECT_FALSE(check.one_agreement);
  EXPECT_EQ(check.max_pairwise_distance, 3u);
  EXPECT_FALSE(check.ok());
}

TEST(CheckAgreement, RequiresNonEmptySets) {
  const auto tree = make_path(3);
  EXPECT_THROW((void)check_agreement(tree, {}, {0}), std::invalid_argument);
  EXPECT_THROW((void)check_agreement(tree, {0}, {}), std::invalid_argument);
}

TEST(RunTreeAA, ReportsCorruptPartiesAndSkipsTheirOutputs) {
  const auto tree = make_path(20);
  const std::vector<VertexId> inputs{0, 19, 5, 10, 3, 16, 8};
  auto adv =
      std::make_unique<sim::SilentAdversary>(std::vector<PartyId>{1, 4});
  const auto run = run_tree_aa(tree, inputs, 2, {}, std::move(adv));
  EXPECT_EQ(run.corrupt, (std::vector<PartyId>{1, 4}));
  EXPECT_FALSE(run.outputs[1].has_value());
  EXPECT_FALSE(run.outputs[4].has_value());
  EXPECT_EQ(run.honest_outputs().size(), 5u);
}

TEST(RunTreeAA, TracksTraffic) {
  const auto tree = make_path(30);
  const std::vector<VertexId> inputs{0, 29, 10, 20};
  const auto run = run_tree_aa(tree, inputs, 1);
  EXPECT_GT(run.traffic.total_messages(), 0u);
  EXPECT_EQ(run.traffic.per_round.size(), run.rounds);
  EXPECT_EQ(run.traffic.total_messages(), run.traffic.honest_messages());
}

TEST(RunTreeAA, TranscriptLevelDeterminism) {
  // Stronger than output determinism: the full message transcript of a
  // TreeAA run (every byte of every message, in order) must repeat exactly.
  auto transcript = [] {
    Rng rng(77);
    const auto tree = make_random_tree(30, rng);
    const perf::TreeIndex index(tree);
    const std::size_t n = 4, t = 1;
    sim::Engine engine(n, t);
    for (PartyId p = 0; p < n; ++p) {
      engine.set_process(p, std::make_unique<TreeAAProcess>(
                                index, n, t, p,
                                static_cast<VertexId>(p * 7 % tree.n())));
    }
    sim::RecordingTracer tracer(/*payloads=*/true);
    engine.set_tracer(&tracer);
    engine.run(static_cast<Round>(tree_aa_rounds(tree, n, t)));
    return tracer.text();
  };
  const auto a = transcript();
  EXPECT_EQ(a, transcript());
  EXPECT_GT(a.size(), 1000u);
}

TEST(RunTreeAA, DeterministicForFixedInputs) {
  Rng rng(55);
  const auto tree = make_random_tree(40, rng);
  const std::vector<VertexId> inputs{3, 17, 9, 22, 9, 30, 2};
  const auto a = run_tree_aa(tree, inputs, 2);
  const auto b = run_tree_aa(tree, inputs, 2);
  EXPECT_EQ(a.honest_outputs(), b.honest_outputs());
  EXPECT_EQ(a.rounds, b.rounds);
}

}  // namespace
}  // namespace treeaa::core

// End-to-end TreeAA deployments on the socket mesh: the sim cross-check,
// fault-budget accounting, crash handling, and report determinism.
#include "net/deploy.h"

#include <gtest/gtest.h>

#include <stdexcept>
#include <utility>

#include "sim/engine.h"
#include "trees/generators.h"

namespace treeaa::net {
namespace {

std::vector<VertexId> spread_inputs(const LabeledTree& tree, std::size_t n) {
  std::vector<VertexId> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    inputs.push_back(static_cast<VertexId>((i * tree.n()) / n % tree.n()));
  }
  return inputs;
}

TEST(Deploy, CleanRunMatchesSimAndAgrees) {
  const auto tree = make_path(12);
  const auto inputs = spread_inputs(tree, 4);
  const auto result = run_tree_aa_net(tree, inputs, 1, DeployConfig{});
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.sim_match);
  EXPECT_TRUE(result.check.valid);
  EXPECT_TRUE(result.check.one_agreement);
  EXPECT_TRUE(result.corrupt.empty());
  EXPECT_TRUE(result.crashed.empty());
  for (PartyId p = 0; p < 4; ++p) {
    ASSERT_TRUE(result.outputs[p].has_value());
    EXPECT_EQ(result.outputs[p], result.sim_outputs[p]);
  }
  EXPECT_EQ(result.report.timeouts_total, 0u);
  EXPECT_TRUE(result.report.links.empty()) << "no faults fired";
}

TEST(Deploy, ByzantineFuzzWithLinkFaultsCrossChecks) {
  // One of the two t=2 budget slots is Byzantine; the other absorbs the
  // link faults (see docs/NET.md on the budget arithmetic).
  const auto tree = make_spider(4, 3);
  const auto inputs = spread_inputs(tree, 7);
  DeployConfig cfg;
  cfg.adversary = AdversaryKind::kFuzz;
  cfg.corrupt_count = 1;
  cfg.faults = FaultPlan::parse("dup=0.2,reorder=0.5");
  cfg.seed = 3;
  const auto result = run_tree_aa_net(tree, inputs, 2, cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.sim_match);
  ASSERT_EQ(result.corrupt.size(), 1u);
  EXPECT_FALSE(result.outputs[result.corrupt[0]].has_value());
  EXPECT_GT(result.report.totals.duplicated, 0u);
}

TEST(Deploy, SilentAdversaryCrossChecks) {
  const auto tree = make_star(9);
  const auto inputs = spread_inputs(tree, 4);
  DeployConfig cfg;
  cfg.adversary = AdversaryKind::kSilent;
  cfg.seed = 5;
  const auto result = run_tree_aa_net(tree, inputs, 1, cfg);
  EXPECT_TRUE(result.ok());
  ASSERT_EQ(result.corrupt.size(), 1u);
}

TEST(Deploy, CrashedPartyIsExcludedButConsistent) {
  const auto tree = make_path(12);
  const auto inputs = spread_inputs(tree, 4);
  DeployConfig cfg;
  cfg.faults = FaultPlan::parse("crash=2@3");
  cfg.round_timeout_ms = 400;
  const auto result = run_tree_aa_net(tree, inputs, 1, cfg);
  EXPECT_TRUE(result.ok());
  EXPECT_TRUE(result.sim_match);
  ASSERT_EQ(result.crashed, std::vector<PartyId>{2});
  // The crashed party is protocol-honest: it still terminates with an
  // output and matches the reference world, it is just not owed the
  // agreement guarantees.
  ASSERT_TRUE(result.outputs[2].has_value());
  EXPECT_EQ(result.outputs[2], result.sim_outputs[2]);
  // Plan-aware synchronization: no deadline was ever burned.
  EXPECT_EQ(result.report.timeouts_total, 0u);
  EXPECT_EQ(result.report.totals.stale_discarded, 0u);
  EXPECT_GT(result.report.totals.suppressed, 0u);
}

TEST(Deploy, ReportIsByteDeterministic) {
  const auto tree = make_caterpillar(6, 2);
  const auto inputs = spread_inputs(tree, 7);
  DeployConfig cfg;
  cfg.adversary = AdversaryKind::kFuzz;
  cfg.corrupt_count = 1;
  cfg.faults = FaultPlan::parse("dup=0.3,reorder=0.4,crash=3@9");
  cfg.seed = 11;
  const auto a = run_tree_aa_net(tree, inputs, 2, cfg);
  const auto b = run_tree_aa_net(tree, inputs, 2, cfg);
  EXPECT_TRUE(a.ok());
  const auto json = a.report.to_json();
  EXPECT_EQ(json, b.report.to_json());
  EXPECT_NE(json.find("\"schema\":\"treeaa.net_report/1\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_plan\""), std::string::npos);
}

TEST(Deploy, CrosscheckThreadsNeverChangeReport) {
  // Running the reference engine on more lanes must not perturb anything:
  // same sim outputs, same verdict, byte-identical report. (COW detachment
  // under corrupting links is covered at the engine level by
  // sim_threads_test; frame corruption here behaves as loss and would blow
  // the protocol's fault budget.) Seven parties run serial at any request;
  // sixteen are granted two lanes.
  const auto tree = make_spider(4, 3);
  for (const auto& [n, threads] : {std::pair<std::size_t, std::size_t>{7, 8},
                                   std::pair<std::size_t, std::size_t>{16, 2}}) {
    if (n == 16) {
      ASSERT_EQ(sim::Engine::lanes_for(n, threads), threads);
    }
    const auto inputs = spread_inputs(tree, n);
    DeployConfig cfg;
    cfg.adversary = AdversaryKind::kFuzz;
    cfg.corrupt_count = 1;
    cfg.faults = FaultPlan::parse("dup=0.2,reorder=0.5");
    cfg.seed = 3;
    const auto serial = run_tree_aa_net(tree, inputs, (n - 1) / 3, cfg);
    cfg.threads = threads;
    const auto parallel = run_tree_aa_net(tree, inputs, (n - 1) / 3, cfg);
    EXPECT_TRUE(serial.sim_match) << "n=" << n;
    EXPECT_TRUE(parallel.sim_match) << "n=" << n;
    EXPECT_EQ(parallel.sim_outputs, serial.sim_outputs) << "n=" << n;
    EXPECT_EQ(parallel.report.to_json(), serial.report.to_json())
        << "n=" << n;
  }
}

TEST(Deploy, ValidatesConfiguration) {
  const auto tree = make_path(12);
  const auto inputs = spread_inputs(tree, 4);
  DeployConfig cfg;
  cfg.corrupt_count = 2;  // exceeds t = 1
  cfg.adversary = AdversaryKind::kSilent;
  EXPECT_THROW((void)run_tree_aa_net(tree, inputs, 1, cfg),
               std::invalid_argument);

  DeployConfig bad_crash;
  bad_crash.faults = FaultPlan::parse("crash=9@1");  // party out of range
  EXPECT_THROW((void)run_tree_aa_net(tree, inputs, 1, bad_crash),
               std::invalid_argument);

  EXPECT_THROW((void)run_tree_aa_net(tree, inputs, 2, DeployConfig{}),
               std::invalid_argument);  // n <= 3t
}

}  // namespace
}  // namespace treeaa::net

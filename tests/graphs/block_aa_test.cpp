// BlockAA end-to-end: AA conditions across every generator family, under
// every applicable adversary, with round accounting, thread determinism of
// the run report, and the convergence ledger's block_round_bound check.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "exp/ledger.h"
#include "graphs/block_aa.h"
#include "graphs/block_index.h"
#include "graphs/check.h"
#include "graphs/generators.h"
#include "graphs/graph.h"
#include "harness/registry.h"
#include "harness/runner.h"
#include "sim/strategies.h"

namespace treeaa::graphs {
namespace {

std::vector<VertexId> spread_inputs(const BlockIndex& index, std::size_t n) {
  const auto [a, b] = index.diameter_endpoints();
  std::vector<VertexId> inputs;
  for (std::size_t p = 0; p < n; ++p) inputs.push_back(p % 2 == 0 ? a : b);
  return inputs;
}

TEST(BlockAA, HonestRunsAgreeOnEveryFamily) {
  Rng rng(0xAA01);
  const std::size_t n = 7, t = 2;
  for (const GraphFamily f : all_graph_families()) {
    for (const std::size_t size : {4u, 11u, 24u}) {
      const Graph g = make_family_graph(f, size, rng);
      const BlockIndex index(g);
      const auto inputs = spread_inputs(index, n);
      const auto run = run_block_aa(index, inputs, t);
      ASSERT_TRUE(run.corrupt.empty());
      EXPECT_EQ(run.rounds, block_aa_rounds(index, n, t));
      const auto check =
          check_agreement(index, inputs, run.honest_outputs());
      EXPECT_TRUE(check.valid) << graph_family_name(f) << " size " << size;
      EXPECT_TRUE(check.one_agreement)
          << graph_family_name(f) << " size " << size;
    }
  }
}

TEST(BlockAA, RandomInputsStayValidAcrossSeeds) {
  const std::size_t n = 7, t = 2;
  for (const GraphFamily f : all_graph_families()) {
    for (std::uint64_t seed = 1; seed <= 5; ++seed) {
      Rng rng(seed);
      const Graph g = make_family_graph(f, 15, rng);
      const BlockIndex index(g);
      std::vector<VertexId> inputs;
      for (std::size_t p = 0; p < n; ++p) {
        inputs.push_back(static_cast<VertexId>(rng.index(g.n())));
      }
      const auto run = run_block_aa(index, inputs, t);
      const auto check =
          check_agreement(index, inputs, run.honest_outputs());
      EXPECT_TRUE(check.ok())
          << graph_family_name(f) << " seed " << seed;
    }
  }
}

TEST(BlockAA, SurvivesEveryApplicableAdversary) {
  const std::size_t n = 7, t = 2;
  Rng graph_rng(0xAD7);
  for (const GraphFamily f : all_graph_families()) {
    const Graph g = make_family_graph(f, 18, graph_rng);
    const BlockIndex index(g);
    const auto inputs = spread_inputs(index, n);
    for (const harness::AdversaryKind kind : harness::all_adversaries()) {
      if (!harness::adversary_applies(harness::ProtocolKind::kBlockAA, kind)) {
        continue;
      }
      Rng rng(0xFEE7);
      harness::AdversaryPlan plan;
      plan.kind = kind;
      plan.victims = sim::random_parties(n, t, rng);
      plan.fuzz_seed = 99;
      if (kind == harness::AdversaryKind::kSplit) {
        plan.split_config =
            core::paths_finder_config(index.agreement_tree(), n, t, {});
        plan.victims = {5, 6};  // split scripts the last t parties
      }
      const auto run =
          run_block_aa(index, inputs, t, {}, harness::make_adversary(plan));
      std::vector<VertexId> honest_inputs;
      for (PartyId p = 0; p < n; ++p) {
        if (run.outputs[p].has_value()) honest_inputs.push_back(inputs[p]);
      }
      ASSERT_FALSE(honest_inputs.empty());
      const auto check =
          check_agreement(index, honest_inputs, run.honest_outputs());
      EXPECT_TRUE(check.valid)
          << graph_family_name(f) << " " << harness::adversary_name(kind);
      EXPECT_TRUE(check.one_agreement)
          << graph_family_name(f) << " " << harness::adversary_name(kind);
    }
  }
}

TEST(BlockAA, SingleVertexAgreementIsImmediate) {
  // All parties share one input: outputs must equal it (hull is a point).
  const Graph g = make_clique_chain(9, 3);
  const BlockIndex index(g);
  const std::vector<VertexId> inputs(7, VertexId{4});
  const auto run = run_block_aa(index, inputs, 2);
  for (const VertexId out : run.honest_outputs()) {
    EXPECT_EQ(out, VertexId{4});
  }
}

// Seven parties run serial at any request; 32 are granted every requested
// lane, which the report's pool_lanes gauge shows.
TEST(BlockAA, ThreadsNeverChangeReportBytes) {
  Rng rng(0x7D);
  const Graph g = make_random_cactus(20, rng);
  const BlockIndex index(g);
  for (const std::size_t n : {7u, 32u}) {
    const auto inputs = spread_inputs(index, n);
    const auto run_with = [&](std::size_t threads) {
      obs::RunReport report;
      obs::Hooks hooks;
      hooks.report = &report;
      const auto run = run_block_aa(index, inputs, (n - 1) / 3, {}, nullptr,
                                    &hooks, sim::EngineOptions{threads});
      const std::string bytes = report.to_json(/*include_timings=*/false) +
                                std::to_string(run.traffic.total_messages());
      if (n == 32 && threads > 1) {
        EXPECT_EQ(report.timing.gauge("pool_lanes").value(),
                  static_cast<double>(threads));
      }
      return bytes;
    };
    const std::string serial = run_with(1);
    EXPECT_EQ(run_with(2), serial) << "n=" << n;
    EXPECT_EQ(run_with(4), serial) << "n=" << n;
  }
}

TEST(BlockAA, ReportCarriesGraphParamsAndRoundBound) {
  const Graph g = make_clique_chain(16, 4);
  const BlockIndex index(g);
  const auto inputs = spread_inputs(index, 7);
  obs::RunReport report;
  obs::Hooks hooks;
  hooks.report = &report;
  const auto run = run_block_aa(index, inputs, 2, {}, nullptr, &hooks);
  EXPECT_EQ(report.protocol, "block_aa");
  const std::string json = report.to_json(false);
  EXPECT_NE(json.find("\"graph_n\""), std::string::npos);
  EXPECT_NE(json.find("\"graph_diameter\""), std::string::npos);
  EXPECT_NE(json.find("\"blocks\""), std::string::npos);
  EXPECT_NE(json.find("\"block_round_bound\""), std::string::npos);
  EXPECT_EQ(run.rounds, block_aa_rounds(index, 7, 2));
}

TEST(BlockAA, LedgerChecksTheBlockRoundBound) {
  const Graph g = make_clique_chain(20, 4);
  const BlockIndex index(g);
  const auto inputs = spread_inputs(index, 7);
  obs::RunReport report;
  obs::Hooks hooks;
  hooks.report = &report;
  (void)run_block_aa(index, inputs, 2, {}, nullptr, &hooks);

  const auto in = exp::ledger_input_from_report(report);
  ASSERT_TRUE(in.has_value());
  EXPECT_EQ(in->protocol, "block_aa");
  ASSERT_TRUE(in->block_round_bound.has_value());
  EXPECT_EQ(in->d0, static_cast<double>(index.diameter()));

  const auto ledger = exp::build_ledger(*in);
  bool found = false;
  for (const auto& check : ledger.checks) {
    if (check.name == "block_round_bound") {
      found = true;
      EXPECT_TRUE(check.ok) << check.detail;
    }
  }
  EXPECT_TRUE(found);
  // An honest diametral run must satisfy every ledger check, the
  // arXiv:2502.05591 round bound included.
  EXPECT_TRUE(ledger.ok());
}

TEST(BlockAA, RegistryRunsBlockAAEndToEnd) {
  const Graph g = make_clique_chain(12, 4);
  const BlockIndex index(g);
  const auto inputs = spread_inputs(index, 7);
  const auto run = harness::run_block_aa(index, 7, 2, inputs);
  const auto check = check_agreement(index, inputs, run.honest_outputs());
  EXPECT_TRUE(check.ok());
  EXPECT_EQ(run.rounds, block_aa_rounds(index, 7, 2));
}

}  // namespace
}  // namespace treeaa::graphs

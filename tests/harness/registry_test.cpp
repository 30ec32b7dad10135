// The protocol registry: name round-trips, predicate sanity, and — the
// ISSUE's acceptance bar for the dispatch table — every registered protocol
// runs through run_protocol() on a small instance and its honest outputs
// pass the matching agreement check.
#include "harness/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/api.h"
#include "core/paths_finder.h"
#include "core/real_engine.h"
#include "graphs/block_index.h"
#include "graphs/check.h"
#include "graphs/generators.h"
#include "harness/runner.h"
#include "obs/report.h"
#include "trees/generators.h"

namespace treeaa {
namespace {

TEST(RegistryTest, ProtocolNamesRoundTrip) {
  std::vector<std::string> seen;
  for (const harness::ProtocolKind p : harness::all_protocols()) {
    const std::string name = harness::protocol_name(p);
    EXPECT_FALSE(name.empty());
    EXPECT_EQ(std::count(seen.begin(), seen.end(), name), 0)
        << "duplicate protocol name " << name;
    seen.push_back(name);
    const auto back = harness::protocol_from_name(name);
    ASSERT_TRUE(back.has_value()) << name;
    EXPECT_EQ(*back, p);
  }
  EXPECT_EQ(seen.size(), 8u);
  EXPECT_FALSE(harness::protocol_from_name("no_such_protocol").has_value());
}

TEST(RegistryTest, AdversaryAndSchedulerNamesRoundTrip) {
  for (const harness::AdversaryKind a : harness::all_adversaries()) {
    const auto back = harness::adversary_from_name(harness::adversary_name(a));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, a);
  }
  EXPECT_FALSE(harness::adversary_from_name("no_such_adversary").has_value());
  for (const auto s :
       {async::SchedulerKind::kFifo, async::SchedulerKind::kLifo,
        async::SchedulerKind::kRandom}) {
    const auto back = harness::scheduler_from_name(harness::scheduler_name(s));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, s);
  }
  EXPECT_FALSE(harness::scheduler_from_name("no_such_scheduler").has_value());
}

TEST(RegistryTest, Predicates) {
  using harness::ProtocolKind;
  EXPECT_TRUE(harness::is_vertex_protocol(ProtocolKind::kTreeAA));
  EXPECT_TRUE(harness::is_vertex_protocol(ProtocolKind::kPathsFinder));
  EXPECT_FALSE(harness::is_vertex_protocol(ProtocolKind::kRealAA));
  EXPECT_TRUE(harness::is_sweep_protocol(ProtocolKind::kIteratedRealAA));
  EXPECT_FALSE(harness::is_sweep_protocol(ProtocolKind::kPathAA));
  EXPECT_FALSE(harness::is_sweep_protocol(ProtocolKind::kAsyncTreeAA));
  // BlockAA takes graph-vertex inputs: its own family, neither tree-vertex
  // nor real-valued, but sweepable.
  EXPECT_TRUE(harness::is_graph_protocol(ProtocolKind::kBlockAA));
  EXPECT_FALSE(harness::is_vertex_protocol(ProtocolKind::kBlockAA));
  EXPECT_FALSE(harness::is_graph_protocol(ProtocolKind::kTreeAA));
  EXPECT_FALSE(harness::is_graph_protocol(ProtocolKind::kRealAA));
  EXPECT_TRUE(harness::is_sweep_protocol(ProtocolKind::kBlockAA));
  // split targets gradecast distribution; split1 additionally needs
  // RealAA's iteration schedule.
  EXPECT_TRUE(harness::adversary_applies(ProtocolKind::kTreeAA,
                                         harness::AdversaryKind::kSplit));
  EXPECT_FALSE(harness::adversary_applies(ProtocolKind::kTreeAA,
                                          harness::AdversaryKind::kSplit1));
  EXPECT_TRUE(harness::adversary_applies(ProtocolKind::kRealAA,
                                         harness::AdversaryKind::kSplit1));
  EXPECT_TRUE(harness::adversary_applies(ProtocolKind::kBlockAA,
                                         harness::AdversaryKind::kSplit));
  EXPECT_FALSE(harness::adversary_applies(ProtocolKind::kBlockAA,
                                          harness::AdversaryKind::kSplit1));
}

/// Runs every registered protocol on a small instance via run_protocol()
/// and checks the honest outputs satisfy the protocol family's agreement
/// guarantee.
TEST(RegistryTest, EveryRegisteredProtocolRunsAndAgrees) {
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  const std::size_t n = 7, t = 2;

  for (const harness::ProtocolKind p : harness::all_protocols()) {
    SCOPED_TRACE(harness::protocol_name(p));
    harness::RunSpec spec;
    spec.protocol = p;
    spec.n = n;
    spec.t = t;
    if (harness::is_graph_protocol(p)) {
      spec.block_index = &block_index;
      const auto [end_a, end_b] = block_index.diameter_endpoints();
      for (std::size_t q = 0; q < n; ++q) {
        spec.vertex_inputs.push_back(q % 2 == 0 ? end_a : end_b);
      }
      const auto inputs = spec.vertex_inputs;
      auto out = harness::run_protocol(spec);
      EXPECT_TRUE(out.corrupt.empty());
      const auto check = graphs::check_agreement(
          block_index, inputs, out.honest_vertex_outputs());
      EXPECT_TRUE(check.valid);
      EXPECT_TRUE(check.one_agreement);
    } else if (harness::is_vertex_protocol(p)) {
      // PathAA is the warm-up protocol on labeled paths; everything else
      // runs on the spider.
      const LabeledTree& tree =
          p == harness::ProtocolKind::kPathAA ? path : spider;
      spec.tree = &tree;
      spec.vertex_inputs = harness::spread_vertex_inputs(tree, n);
      const auto inputs = spec.vertex_inputs;
      auto out = harness::run_protocol(spec);
      EXPECT_TRUE(out.corrupt.empty());
      if (p == harness::ProtocolKind::kPathsFinder) {
        // Phase 1 alone: every party must output a root-anchored path.
        ASSERT_EQ(out.paths.size(), n);
        for (const auto& path_out : out.paths) {
          ASSERT_TRUE(path_out.has_value());
          ASSERT_FALSE(path_out->empty());
          EXPECT_EQ(path_out->front(), tree.root());
        }
        continue;
      }
      const auto honest = out.honest_vertex_outputs();
      ASSERT_EQ(honest.size(), n);
      const auto check = core::check_agreement(tree, inputs, honest);
      EXPECT_TRUE(check.valid);
      EXPECT_TRUE(check.one_agreement);
    } else {
      spec.eps = 0.5;
      spec.known_range = 100.0;
      spec.real_inputs = harness::spread_real_inputs(n, 0.0, 100.0);
      auto out = harness::run_protocol(spec);
      const auto honest = out.honest_real_outputs();
      ASSERT_EQ(honest.size(), n);
      const auto [lo, hi] =
          std::minmax_element(honest.begin(), honest.end());
      EXPECT_LE(*hi - *lo, 0.5);   // eps-agreement
      EXPECT_GE(*lo, 0.0);         // validity within the input range
      EXPECT_LE(*hi, 100.0);
    }
  }
}

/// A spec over small fixed instances for every protocol (spread inputs),
/// on the given inner engine.
harness::RunSpec small_spec(harness::ProtocolKind p, const LabeledTree& spider,
                            const LabeledTree& path,
                            const graphs::BlockIndex& block_index,
                            core::RealEngineKind engine) {
  harness::RunSpec spec;
  spec.protocol = p;
  spec.n = 7;
  spec.t = 2;
  spec.engine = engine;
  if (harness::is_graph_protocol(p)) {
    spec.block_index = &block_index;
    spec.vertex_inputs = harness::spread_vertex_inputs(block_index, spec.n);
  } else if (harness::is_vertex_protocol(p)) {
    spec.tree = p == harness::ProtocolKind::kPathAA ? &path : &spider;
    spec.vertex_inputs = harness::spread_vertex_inputs(*spec.tree, spec.n);
  } else {
    spec.eps = 0.5;
    spec.known_range = 100.0;
    spec.real_inputs = harness::spread_real_inputs(spec.n, 0.0, 100.0);
  }
  return spec;
}

/// round_budget() is exactly the rounds one run takes, on both inner
/// engines, and every run passes check_outcome(). PathsFinder on the
/// classic engine runs longer than the BDH budget, so it only completes
/// when the budget follows the engine.
TEST(RegistryTest, RoundBudgetIsWhatARunTakesAndEveryRunPassesItsCheck) {
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  for (const auto engine : {core::RealEngineKind::kGradecastBdh,
                            core::RealEngineKind::kClassicHalving}) {
    for (const harness::ProtocolKind p : harness::all_protocols()) {
      SCOPED_TRACE(std::string(harness::protocol_name(p)) + " on " +
                   core::real_engine_name(engine));
      harness::RunSpec spec = small_spec(p, spider, path, block_index, engine);
      const std::size_t budget = harness::round_budget(spec);
      const auto out = harness::run_protocol(spec);
      EXPECT_EQ(out.rounds, budget);
      if (p == harness::ProtocolKind::kAsyncTreeAA) {
        EXPECT_EQ(budget, 0u);
      } else {
        EXPECT_GT(budget, 0u);
      }
      const harness::Verdict verdict = harness::check_outcome(spec, out);
      EXPECT_TRUE(verdict.valid);
      EXPECT_TRUE(verdict.agreement);
      EXPECT_TRUE(verdict.ok());
      EXPECT_LE(verdict.spread, harness::is_vertex_protocol(p) ||
                                        harness::is_graph_protocol(p)
                                    ? 1.0
                                    : spec.eps);
    }
  }
}

/// A split target exists exactly where the split attack applies, and it is
/// the instance the attack aims at.
TEST(RegistryTest, SplitTargetExistsExactlyWhereSplitApplies) {
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  for (const harness::ProtocolKind p : harness::all_protocols()) {
    SCOPED_TRACE(harness::protocol_name(p));
    const harness::RunSpec spec = small_spec(
        p, spider, path, block_index, core::RealEngineKind::kGradecastBdh);
    const auto target = harness::split_target(spec);
    EXPECT_EQ(target.has_value(),
              harness::adversary_applies(p, harness::AdversaryKind::kSplit));
    if (!target.has_value()) continue;
    EXPECT_EQ(target->n, spec.n);
    EXPECT_EQ(target->t, spec.t);
  }
  const harness::RunSpec tree_spec =
      small_spec(harness::ProtocolKind::kTreeAA, spider, path, block_index,
                 core::RealEngineKind::kGradecastBdh);
  EXPECT_EQ(harness::split_target(tree_spec)->known_range,
            core::paths_finder_range(spider));
  const harness::RunSpec block_spec =
      small_spec(harness::ProtocolKind::kBlockAA, spider, path, block_index,
                 core::RealEngineKind::kGradecastBdh);
  EXPECT_EQ(harness::split_target(block_spec)->known_range,
            core::paths_finder_range(block_index.agreement_tree()));
  const harness::RunSpec real_spec =
      small_spec(harness::ProtocolKind::kRealAA, spider, path, block_index,
                 core::RealEngineKind::kGradecastBdh);
  EXPECT_EQ(harness::split_target(real_spec)->known_range, 100.0);
  EXPECT_EQ(harness::split_target(real_spec)->eps, 0.5);
}

/// No honest output at all is neither valid nor in agreement, for every
/// protocol family.
TEST(RegistryTest, CheckOutcomeFailsClosedOnAnEmptyHonestSet) {
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  for (const harness::ProtocolKind p : harness::all_protocols()) {
    SCOPED_TRACE(harness::protocol_name(p));
    const harness::RunSpec spec = small_spec(
        p, spider, path, block_index, core::RealEngineKind::kGradecastBdh);
    harness::RunOutcome nobody;
    nobody.vertex_outputs.resize(spec.n);
    nobody.real_outputs.resize(spec.n);
    nobody.paths.resize(spec.n);
    const harness::Verdict verdict = harness::check_outcome(spec, nobody);
    EXPECT_FALSE(verdict.valid);
    EXPECT_FALSE(verdict.agreement);
  }
}

/// make_adversary covers every named kind, and the registry-built silent
/// adversary leaves the honest parties in agreement.
TEST(RegistryTest, MakeAdversaryAndSilentRun) {
  harness::AdversaryPlan none;
  EXPECT_EQ(harness::make_adversary(none), nullptr);

  const auto tree = make_spider(3, 3);
  const std::size_t n = 7, t = 2;
  harness::AdversaryPlan plan;
  plan.kind = harness::AdversaryKind::kSilent;
  plan.victims = {1, 4};

  harness::RunSpec spec;
  spec.protocol = harness::ProtocolKind::kTreeAA;
  spec.n = n;
  spec.t = t;
  spec.tree = &tree;
  spec.vertex_inputs = harness::spread_vertex_inputs(tree, n);
  spec.adversary = harness::make_adversary(plan);
  ASSERT_NE(spec.adversary, nullptr);
  const auto inputs = spec.vertex_inputs;
  auto out = harness::run_protocol(spec);
  EXPECT_EQ(out.corrupt, plan.victims);

  std::vector<VertexId> honest_inputs;
  for (PartyId q = 0; q < n; ++q) {
    if (out.vertex_outputs[q].has_value()) honest_inputs.push_back(inputs[q]);
  }
  const auto check = core::check_agreement(tree, honest_inputs,
                                           out.honest_vertex_outputs());
  EXPECT_TRUE(check.valid);
  EXPECT_TRUE(check.one_agreement);
}

/// The parallel engine's registry-level determinism contract: every
/// synchronous protocol, under every adversary that applies to it, yields
/// the same outputs and the byte-identical canonical run report at
/// RunSpec::threads 1, 2, and 8. (The async protocol is excluded: its
/// engine has its own scheduler and documents that it ignores `threads`.)
TEST(RegistryTest, ThreadsNeverChangeOutcomeOrReport) {
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  const std::size_t n = 7, t = 2;

  for (const harness::ProtocolKind p : harness::all_protocols()) {
    if (p == harness::ProtocolKind::kAsyncTreeAA) continue;
    for (const harness::AdversaryKind a : harness::all_adversaries()) {
      if (!harness::adversary_applies(p, a)) continue;
      SCOPED_TRACE(std::string(harness::protocol_name(p)) + " vs " +
                   harness::adversary_name(a));
      const LabeledTree& tree =
          p == harness::ProtocolKind::kPathAA ? path : spider;

      auto run_at = [&](std::size_t threads) {
        obs::RunReport report;
        obs::Hooks hooks;
        hooks.report = &report;

        harness::RunSpec spec;
        spec.protocol = p;
        spec.n = n;
        spec.t = t;
        spec.threads = threads;
        spec.hooks = &hooks;
        if (harness::is_graph_protocol(p)) {
          spec.block_index = &block_index;
          const auto [end_a, end_b] = block_index.diameter_endpoints();
          for (std::size_t q = 0; q < n; ++q) {
            spec.vertex_inputs.push_back(q % 2 == 0 ? end_a : end_b);
          }
        } else if (harness::is_vertex_protocol(p)) {
          spec.tree = &tree;
          spec.vertex_inputs = harness::spread_vertex_inputs(tree, n);
        } else {
          spec.eps = 0.5;
          spec.known_range = 100.0;
          spec.real_inputs = harness::spread_real_inputs(n, 0.0, 100.0);
        }

        harness::AdversaryPlan plan;
        plan.kind = a;
        plan.victims = {1, 4};
        plan.fuzz_seed = 77;
        if (a == harness::AdversaryKind::kSplit ||
            a == harness::AdversaryKind::kSplit1) {
          if (harness::is_graph_protocol(p)) {
            // The split attack aims at the inner TreeAA's topology: the
            // agreement tree, not the graph.
            plan.split_config = core::paths_finder_config(
                block_index.agreement_tree(), n, t, {});
          } else if (harness::is_vertex_protocol(p)) {
            plan.split_config = core::paths_finder_config(tree, n, t, {});
          } else {
            realaa::Config cfg;
            cfg.n = n;
            cfg.t = t;
            cfg.eps = 0.5;
            cfg.known_range = 100.0;
            plan.split_config = cfg;
          }
        }
        spec.adversary = harness::make_adversary(plan);

        auto out = harness::run_protocol(spec);
        return std::make_tuple(report.to_json(/*include_timings=*/false),
                               out.vertex_outputs, out.real_outputs,
                               out.paths, out.corrupt, out.rounds);
      };

      const auto base = run_at(1);
      EXPECT_FALSE(std::get<0>(base).empty());
      EXPECT_EQ(run_at(2), base);
      EXPECT_EQ(run_at(8), base);
    }
  }
}

/// FNV-1a 64 over a string: a compact witness for pinning report bytes.
std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ull;
  for (const char c : s) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 1099511628211ull;
  }
  return h;
}

/// Pins the canonical report bytes of every synchronous protocol across
/// commits, not just across thread counts: one fixed spec per protocol
/// (fixed tree or block graph, fuzz adversary with a fixed seed), and the
/// FNV-1a 64 of report.to_json(false) plus the total message count. A
/// refactor of the observed-run driver must leave both untouched; a change
/// that alters them on purpose re-records the table and says why.
TEST(RegistryTest, ReportBytesGolden) {
  struct Golden {
    harness::ProtocolKind protocol;
    std::uint64_t report_hash;
    std::uint64_t messages;
  };
  const Golden kGolden[] = {
      {harness::ProtocolKind::kTreeAA, 0xbc88d04ad8427a51ull, 918},
      {harness::ProtocolKind::kIteratedTreeAA, 0x7f3e67fa21c1ffbeull, 765},
      {harness::ProtocolKind::kRealAA, 0x0511c847fde47c93ull, 612},
      {harness::ProtocolKind::kIteratedRealAA, 0xe58c228b72633781ull, 1224},
      {harness::ProtocolKind::kPathAA, 0xf9134f8c2e767344ull, 459},
      {harness::ProtocolKind::kPathsFinder, 0x1dced67c4e6072a6ull, 459},
      {harness::ProtocolKind::kBlockAA, 0x9baf1db48ab45bafull, 918},
  };
  const auto spider = make_spider(3, 3);
  const auto path = make_path(9);
  const graphs::BlockIndex block_index(graphs::make_clique_chain(10, 4));
  const std::size_t n = 7, t = 2;

  for (const Golden& g : kGolden) {
    // Four engine lanes put the observed path on a worker pool (and its
    // pool_* gauges); the canonical bytes must not notice.
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(std::string(harness::protocol_name(g.protocol)) + " at " +
                   std::to_string(threads) + " thread(s)");
      obs::RunReport report;
      obs::Hooks hooks;
      hooks.report = &report;
      harness::RunSpec spec;
      spec.protocol = g.protocol;
      spec.n = n;
      spec.t = t;
      spec.threads = threads;
      spec.hooks = &hooks;
      if (harness::is_graph_protocol(g.protocol)) {
        spec.block_index = &block_index;
        const auto [end_a, end_b] = block_index.diameter_endpoints();
        for (std::size_t q = 0; q < n; ++q) {
          spec.vertex_inputs.push_back(q % 2 == 0 ? end_a : end_b);
        }
      } else if (harness::is_vertex_protocol(g.protocol)) {
        const LabeledTree& tree =
            g.protocol == harness::ProtocolKind::kPathAA ? path : spider;
        spec.tree = &tree;
        spec.vertex_inputs = harness::spread_vertex_inputs(tree, n);
      } else {
        spec.eps = 0.5;
        spec.known_range = 100.0;
        spec.real_inputs = harness::spread_real_inputs(n, 0.0, 100.0);
      }
      harness::AdversaryPlan plan;
      plan.kind = harness::AdversaryKind::kFuzz;
      plan.victims = {1, 4};
      plan.fuzz_seed = 77;
      spec.adversary = harness::make_adversary(plan);

      const auto out = harness::run_protocol(spec);
      const std::string json = report.to_json(/*include_timings=*/false);
      EXPECT_EQ(fnv1a64(json), g.report_hash) << json;
      EXPECT_EQ(out.traffic.total_messages(), g.messages);
    }
  }
}

}  // namespace
}  // namespace treeaa

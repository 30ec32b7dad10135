// TreeAA (Theorem 4): Termination within the computed round budget,
// Validity and 1-Agreement across tree families, sizes, resiliences and the
// full adversary zoo — including split attacks aimed at each phase.
#include "core/tree_aa.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/api.h"
#include "harness/runner.h"
#include "realaa/adversaries.h"
#include "realaa/rounds.h"
#include "sim/engine.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace treeaa::core {
namespace {

std::vector<VertexId> honest_inputs_of(const RunResult& run,
                                       const std::vector<VertexId>& inputs) {
  std::vector<VertexId> honest;
  for (PartyId p = 0; p < inputs.size(); ++p) {
    if (std::find(run.corrupt.begin(), run.corrupt.end(), p) ==
        run.corrupt.end()) {
      honest.push_back(inputs[p]);
    }
  }
  return honest;
}

TEST(TreeAA, HonestRunOnFigure3) {
  const auto tree = make_figure3_tree();
  const std::vector<VertexId> inputs{*tree.find("v3"), *tree.find("v6"),
                                     *tree.find("v5"), *tree.find("v7")};
  const auto run = run_tree_aa(tree, inputs, 1);
  const auto check =
      check_agreement(tree, inputs, run.honest_outputs());
  EXPECT_TRUE(check.ok()) << "max distance " << check.max_pairwise_distance;
  EXPECT_EQ(run.rounds, tree_aa_rounds(tree, 4, 1));
}

TEST(TreeAA, SingleVertexTreeIsTrivial) {
  const auto tree = LabeledTree::single("r");
  const auto run = run_tree_aa(tree, {0, 0, 0, 0}, 1);
  EXPECT_EQ(run.rounds, 0u);
  for (const VertexId v : run.honest_outputs()) EXPECT_EQ(v, 0u);
}

TEST(TreeAA, TwoVertexTreeOutputsAreOneClose) {
  const auto tree = make_path(2);
  const std::vector<VertexId> inputs{0, 1, 0, 1};
  const auto run = run_tree_aa(tree, inputs, 1);
  const auto check = check_agreement(tree, inputs, run.honest_outputs());
  EXPECT_TRUE(check.ok());
}

TEST(TreeAA, IdenticalInputsStayPut) {
  Rng rng(8);
  const auto tree = make_random_tree(50, rng);
  const auto v = static_cast<VertexId>(rng.index(tree.n()));
  const std::vector<VertexId> inputs(7, v);
  const auto run = run_tree_aa(tree, inputs, 2);
  // Hull of identical inputs is {v}: Validity forces the exact vertex.
  for (const VertexId out : run.honest_outputs()) EXPECT_EQ(out, v);
}

TEST(TreeAA, RejectsBadArguments) {
  const auto tree = make_path(5);
  EXPECT_THROW((void)run_tree_aa(tree, {0, 1, 2}, 1),
               std::invalid_argument);  // n = 3 = 3t
  EXPECT_THROW((void)run_tree_aa(tree, {0, 1, 99, 2}, 1),
               std::invalid_argument);  // bogus vertex
}

TEST(TreeAA, RoundBudgetIsSumOfPhases) {
  Rng rng(4);
  const auto tree = make_random_tree(300, rng);
  const std::size_t n = 10, t = 3;
  const auto r1 = paths_finder_config(tree, n, t, {}).rounds();
  const auto r2 = projection_config(tree, n, t, {}).rounds();
  EXPECT_EQ(tree_aa_rounds(tree, n, t), r1 + r2);
  const auto inputs = harness::spread_vertex_inputs(tree, n);
  const auto run = run_tree_aa(tree, inputs, t);
  EXPECT_EQ(run.rounds, r1 + r2);
}

TEST(TreeAA, RoundComplexityMatchesTheorem4Shape) {
  // Rounds grow like log|V| / log log|V|: check against the explicit
  // closed-form budget 2 * theorem3_round_bound(2|V|, 1), a generous
  // constant-factor envelope of the Theorem 4 statement.
  Rng rng(10);
  for (std::size_t size : {10u, 100u, 1000u, 10000u}) {
    const auto tree = make_random_tree(size, rng);
    const std::size_t rounds = tree_aa_rounds(tree, 16, 5);
    EXPECT_LE(rounds, 2 * realaa::theorem3_round_bound(
                              static_cast<double>(2 * size), 1.0))
        << "|V| = " << size;
  }
}

// --- Line 6 / Figure 5 output rule -------------------------------------------

TEST(ResolveOutputVertex, MapsIndicesOntoThePath) {
  const std::vector<VertexId> path{10, 11, 12, 13};
  EXPECT_EQ(resolve_output_vertex(path, 1.0), 10u);
  EXPECT_EQ(resolve_output_vertex(path, 2.4), 11u);
  EXPECT_EQ(resolve_output_vertex(path, 2.5), 12u);  // tie rounds up
  EXPECT_EQ(resolve_output_vertex(path, 4.0), 13u);
}

TEST(ResolveOutputVertex, Figure5ClampToLastVertex) {
  // closestInt(j) = k + 1: the shorter-path party cannot name v_{k+1}
  // uniquely, so it outputs v_k.
  const std::vector<VertexId> path{10, 11, 12, 13};
  EXPECT_EQ(resolve_output_vertex(path, 4.6), 13u);   // closestInt = 5 > 4
  EXPECT_EQ(resolve_output_vertex(path, 5.0), 13u);
  EXPECT_EQ(resolve_output_vertex(path, 4.49), 13u);  // closestInt = 4
}

TEST(ResolveOutputVertex, RejectsDegenerateInputs) {
  const std::vector<VertexId> path{10};
  EXPECT_EQ(resolve_output_vertex(path, 1.0), 10u);
  EXPECT_THROW((void)resolve_output_vertex({}, 1.0), std::invalid_argument);
  EXPECT_THROW((void)resolve_output_vertex(path, 0.2), InternalError);
}

// --- Adversarial sweeps ------------------------------------------------------

struct SweepParam {
  TreeFamily family;
  std::size_t n;
  std::uint64_t seed;
  // 0 silent, 1 fuzz, 2 split@phase1, 3 split@phase2, 4 crash, 5 replay
  int adversary;
};

class TreeAASweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(TreeAASweep, AAHoldsUnderAdversaries) {
  const auto [family, n, seed, adversary] = GetParam();
  Rng rng(seed);
  const auto tree = make_family_tree(family, 8 + rng.index(100), rng);
  const std::size_t t = (n - 1) / 3;
  const auto inputs = harness::random_vertex_inputs(tree, n, rng);
  const auto victims = sim::random_parties(n, t, rng);

  std::unique_ptr<sim::Adversary> adv;
  switch (adversary) {
    case 0:
      adv = std::make_unique<sim::SilentAdversary>(victims);
      break;
    case 1:
      adv = std::make_unique<sim::FuzzAdversary>(victims, seed, 16, 48);
      break;
    case 2: {  // split attack on the PathsFinder phase
      realaa::SplitAdversary::Options opts;
      opts.config = paths_finder_config(tree, n, t, {});
      opts.corrupt = victims;
      adv = std::make_unique<realaa::SplitAdversary>(std::move(opts));
      break;
    }
    case 3: {  // split attack on the projection phase
      realaa::SplitAdversary::Options opts;
      opts.config = projection_config(tree, n, t, {});
      opts.corrupt = victims;
      opts.start_round = static_cast<Round>(
          paths_finder_config(tree, n, t, {}).rounds() + 1);
      adv = std::make_unique<realaa::SplitAdversary>(std::move(opts));
      break;
    }
    case 4: {
      std::vector<sim::CrashAdversary::Crash> crashes;
      Round when = 1;
      for (const PartyId v : victims) {
        crashes.push_back({v, when, 0.5});
        when += 2;
      }
      adv = std::make_unique<sim::CrashAdversary>(std::move(crashes));
      break;
    }
    default:
      adv = std::make_unique<sim::ReplayAdversary>(victims, seed, 20);
      break;
  }

  const auto run = run_tree_aa(tree, inputs, t, {}, std::move(adv));
  const auto honest = honest_inputs_of(run, inputs);
  const auto check = check_agreement(tree, honest, run.honest_outputs());
  EXPECT_TRUE(check.valid)
      << tree_family_name(family) << " n=" << n << " seed=" << seed
      << " adv=" << adversary;
  EXPECT_TRUE(check.one_agreement)
      << tree_family_name(family) << " n=" << n << " seed=" << seed
      << " adv=" << adversary << " max d=" << check.max_pairwise_distance;
}

std::vector<SweepParam> sweep_params() {
  std::vector<SweepParam> params;
  std::uint64_t seed = 100;
  for (const TreeFamily f : all_tree_families()) {
    for (const std::size_t n : {4u, 7u, 13u}) {
      for (int adv = 0; adv <= 5; ++adv) {
        params.push_back({f, n, seed++, adv});
      }
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(FamiliesByAdversary, TreeAASweep,
                         ::testing::ValuesIn(sweep_params()));

// --- Update-rule / iteration-mode ablations stay correct ---------------------

class TreeAAOptionsSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(TreeAAOptionsSweep, AAHoldsForEveryConfiguration) {
  const auto [update, mode] = GetParam();
  TreeAAOptions opts;
  opts.update = static_cast<realaa::UpdateRule>(update);
  opts.mode = static_cast<realaa::IterationMode>(mode);
  Rng rng(42 + static_cast<std::uint64_t>(update * 2 + mode));
  const auto tree = make_random_tree(80, rng);
  const std::size_t n = 10, t = 3;
  const auto inputs = harness::random_vertex_inputs(tree, n, rng);
  realaa::SplitAdversary::Options aopts;
  aopts.config = paths_finder_config(tree, n, t,
                                     {opts.update, opts.mode});
  aopts.corrupt = {7, 8, 9};
  const auto run =
      run_tree_aa(tree, inputs, t, opts,
                  std::make_unique<realaa::SplitAdversary>(std::move(aopts)));
  const auto honest = honest_inputs_of(run, inputs);
  const auto check = check_agreement(tree, honest, run.honest_outputs());
  EXPECT_TRUE(check.ok()) << "update=" << update << " mode=" << mode
                          << " max d=" << check.max_pairwise_distance;
}

INSTANTIATE_TEST_SUITE_P(Options, TreeAAOptionsSweep,
                         ::testing::Combine(::testing::Values(0, 1),
                                            ::testing::Values(0, 1)));

TEST(TreeAA, SplitRichRegimeEndToEnd) {
  // t >= R with one equivocator per iteration in BOTH phases: the only
  // regime where PathsFinder can genuinely split honest paths (see
  // docs/ADVERSARIES.md), i.e. where the Figure-5 machinery is live in the
  // full protocol. AA must hold across many seeds.
  const std::size_t n = 22, t = 7;
  std::size_t splits_seen = 0;
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    Rng rng(seed * 1009);
    const auto tree = make_random_tree(40 + rng.index(200), rng);
    const auto inputs = harness::spread_vertex_inputs(tree, n);

    realaa::SplitAdversary::Options phase1;
    phase1.config = paths_finder_config(tree, n, t, {});
    for (std::size_t i = 0; i < t; ++i) {
      phase1.corrupt.push_back(static_cast<PartyId>(n - 1 - i));
    }
    phase1.schedule.assign(phase1.config.iterations(), 1);

    const auto run = run_tree_aa(
        tree, inputs, t, {},
        std::make_unique<realaa::SplitAdversary>(std::move(phase1)));
    if (run.path_split) ++splits_seen;

    std::vector<VertexId> honest(inputs.begin(),
                                 inputs.begin() + static_cast<long>(n - t));
    const auto check = check_agreement(tree, honest, run.honest_outputs());
    ASSERT_TRUE(check.ok()) << "seed " << seed << " split="
                            << run.path_split << " max d "
                            << check.max_pairwise_distance;
  }
  // Splits are rare (they need the final RealAA values to straddle a
  // half-integer), so no hard assertion on splits_seen — but telemetry
  // proves the counter is wired when one occurs.
  (void)splits_seen;
}

TEST(TreeAA, LargeScaleSmoke) {
  // 50k-vertex tree, spread inputs: rounds stay in the log/loglog regime
  // and the guarantees hold end to end.
  Rng rng(50);
  const auto tree = make_random_chainy_tree(50000, rng, 0.7);
  const std::size_t n = 7, t = 2;
  const auto inputs = harness::spread_vertex_inputs(tree, n);
  const auto run = run_tree_aa(tree, inputs, t);
  EXPECT_LE(run.rounds, 60u);
  EXPECT_TRUE(check_agreement(tree, inputs, run.honest_outputs()).ok());
}

// --- Telemetry ----------------------------------------------------------------

TEST(TreeAATelemetry, HonestRunIsCleanAndConsistent) {
  Rng rng(21);
  const auto tree = make_random_tree(60, rng);
  const std::size_t n = 7, t = 2;
  const auto inputs = harness::random_vertex_inputs(tree, n, rng);
  const auto run = run_tree_aa(tree, inputs, t);
  EXPECT_FALSE(run.path_split);
  EXPECT_EQ(run.clamp_count, 0u);
  EXPECT_EQ(run.max_detected_faulty, 0u);
}

TEST(TreeAATelemetry, SplitAdversaryGetsDetected) {
  Rng rng(22);
  const auto tree = make_random_tree(60, rng);
  const std::size_t n = 10, t = 3;
  const auto inputs = harness::random_vertex_inputs(tree, n, rng);
  realaa::SplitAdversary::Options opts;
  opts.config = projection_config(tree, n, t, {});
  opts.corrupt = {7, 8, 9};
  opts.start_round =
      static_cast<Round>(paths_finder_config(tree, n, t, {}).rounds() + 1);
  const auto run =
      run_tree_aa(tree, inputs, t, {},
                  std::make_unique<realaa::SplitAdversary>(std::move(opts)));
  // Every equivocator that fired in phase 2 is proven Byzantine at every
  // honest party; the default schedule spends the whole pool.
  EXPECT_GE(run.max_detected_faulty, 1u);
  EXPECT_LE(run.max_detected_faulty, t);
}

TEST(TreeAATelemetry, PerPartyFieldsAreFilled) {
  const auto tree = make_path(50);
  const perf::TreeIndex index(tree);
  const std::size_t n = 4, t = 1;
  sim::Engine engine(n, t);
  std::vector<TreeAAProcess*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<TreeAAProcess>(index, n, t, p,
                                                static_cast<VertexId>(p));
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  engine.run(static_cast<Round>(tree_aa_rounds(tree, n, t)));
  for (PartyId p = 0; p < n; ++p) {
    const auto telemetry = procs[p]->telemetry();
    EXPECT_EQ(telemetry.phase1_rounds + telemetry.phase2_rounds,
              procs[p]->rounds());
    EXPECT_GE(telemetry.path_length, 1u);
    EXPECT_FALSE(telemetry.clamped);
  }
}

// --- Engine independence (paper §7 note) -------------------------------------

TEST(TreeAAEngine, ClassicHalvingEngineStillAchievesAA) {
  TreeAAOptions opts;
  opts.engine = RealEngineKind::kClassicHalving;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    Rng rng(seed);
    const auto tree = make_random_tree(10 + rng.index(100), rng);
    const std::size_t n = 10, t = 3;
    const auto inputs = harness::random_vertex_inputs(tree, n, rng);
    const auto victims = sim::random_parties(n, t, rng);
    std::unique_ptr<sim::Adversary> adv;
    if (seed % 2 == 0) {
      adv = std::make_unique<sim::FuzzAdversary>(victims, seed, 16, 48);
    } else {
      adv = std::make_unique<sim::SilentAdversary>(victims);
    }
    const auto run = run_tree_aa(tree, inputs, t, opts, std::move(adv));
    const auto honest = honest_inputs_of(run, inputs);
    const auto check = check_agreement(tree, honest, run.honest_outputs());
    EXPECT_TRUE(check.ok()) << "seed " << seed << " max d "
                            << check.max_pairwise_distance;
  }
}

TEST(TreeAAEngine, ClassicEngineNeedsMoreRoundsOnDeepTrees) {
  const auto tree = make_path(5000);
  TreeAAOptions fast;  // default BDH engine
  TreeAAOptions slow;
  slow.engine = RealEngineKind::kClassicHalving;
  EXPECT_LT(tree_aa_rounds(tree, 7, 2, fast),
            tree_aa_rounds(tree, 7, 2, slow));
}

TEST(TreeAAEngine, EngineRoundsMatchUnderlyingConfigs) {
  const auto tree = make_path(200);
  TreeAAOptions slow;
  slow.engine = RealEngineKind::kClassicHalving;
  const baselines::IteratedRealConfig phase1{7, 2, 1.0,
                                             static_cast<double>(
                                                 2 * tree.n() - 2)};
  const baselines::IteratedRealConfig phase2{
      7, 2, 1.0, static_cast<double>(tree.diameter())};
  EXPECT_EQ(tree_aa_rounds(tree, 7, 2, slow),
            phase1.rounds() + phase2.rounds());
}

TEST(RealEngineFactory, NamesAndRounds) {
  EXPECT_STREQ(real_engine_name(RealEngineKind::kGradecastBdh),
               "gradecast-bdh");
  EXPECT_STREQ(real_engine_name(RealEngineKind::kClassicHalving),
               "classic-halving");
  RealEngineConfig cfg;
  const auto engine = make_real_engine(cfg, 7, 2, 100.0, 1.0, 3, 42.0);
  ASSERT_NE(engine, nullptr);
  EXPECT_EQ(engine->rounds(), real_engine_rounds(cfg, 7, 2, 100.0, 1.0));
  EXPECT_FALSE(engine->output().has_value());
}

}  // namespace
}  // namespace treeaa::core

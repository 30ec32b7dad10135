// The search engine's three contracts: determinism (--threads never moves
// a byte of the report or corpus), the acceptance floor (the evolved best
// never scores below the §3 optimal-split baseline, which seeds
// generation 0), and replayability (every corpus line reproduces its
// recorded outcome exactly).
#include "hunt/search.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "hunt/report.h"
#include "hunt/scenario.h"
#include "support/golden.h"

namespace treeaa {
namespace {

using test_support::fnv1a64;

hunt::Scenario small_real_scenario() {
  hunt::Scenario s;
  s.name = "test-real";
  s.protocol = harness::ProtocolKind::kRealAA;
  s.n = 8;
  s.t = 2;
  s.eps = 0.5;
  s.known_range = 8.0;
  return s;
}

hunt::Scenario small_tree_scenario() {
  hunt::Scenario s;
  s.name = "test-tree";
  s.protocol = harness::ProtocolKind::kTreeAA;
  s.n = 7;
  s.t = 2;
  s.tree = hunt::TreeSpec{"spider", 16, 3};
  return s;
}

hunt::HuntOptions tiny_budget() {
  hunt::HuntOptions o;
  o.population = 8;
  o.generations = 3;
  o.elites = 2;
  o.corpus_max = 6;
  o.seed = 5;
  return o;
}

TEST(HuntTest, ThreadsNeverChangeReportOrCorpusBytes) {
  const auto m = hunt::materialize(small_real_scenario());
  hunt::HuntOptions serial = tiny_budget();
  serial.threads = 1;
  hunt::HuntOptions parallel = tiny_budget();
  parallel.threads = 4;

  const auto r1 = hunt::run_hunt(m, serial);
  const auto r4 = hunt::run_hunt(m, parallel);
  EXPECT_EQ(hunt::hunt_report_json(m, serial, r1),
            hunt::hunt_report_json(m, parallel, r4));
  EXPECT_EQ(hunt::corpus_jsonl(m, serial, r1),
            hunt::corpus_jsonl(m, parallel, r4));
}

TEST(HuntTest, BestNeverScoresBelowTheSplitBaseline) {
  // Generation 0 seeds from AdversarySpace::fixed_points(), whose kSplit
  // point is the §3 optimal split — so "rediscovers or beats" holds by
  // construction and this test pins it.
  const auto m = hunt::materialize(small_real_scenario());
  const auto result = hunt::run_hunt(m, tiny_budget());
  ASSERT_TRUE(result.best.eval.ok);
  bool saw_split = false;
  for (const auto& [name, score] : result.baselines) {
    if (name == "split") {
      saw_split = true;
      EXPECT_GE(result.best.score, score);
    }
  }
  EXPECT_TRUE(saw_split);
}

TEST(HuntTest, EveryCorpusEntryReplaysExactly) {
  for (const auto& scenario :
       {small_real_scenario(), small_tree_scenario()}) {
    SCOPED_TRACE(scenario.name);
    const auto m = hunt::materialize(scenario);
    const auto options = tiny_budget();
    const auto result = hunt::run_hunt(m, options);
    const std::string jsonl = hunt::corpus_jsonl(m, options, result);
    ASSERT_FALSE(jsonl.empty());

    std::istringstream lines(jsonl);
    std::string line;
    std::size_t entries = 0;
    while (std::getline(lines, line)) {
      if (line.empty()) continue;
      ++entries;
      std::string error;
      const auto entry = hunt::corpus_entry_from_json(line, &error);
      ASSERT_TRUE(entry.has_value()) << error;
      EXPECT_EQ(hunt::replay_corpus_entry(*entry), "") << line;
    }
    EXPECT_GT(entries, 0u);
  }
}

TEST(HuntTest, HuntSpecParsesAndRejectsUnknownKeys) {
  hunt::Scenario s;
  hunt::HuntOptions o;
  std::string error;
  EXPECT_TRUE(hunt::load_hunt_spec(
      R"({"scenario":{"protocol":"real_aa","n":8,"t":2,"eps":0.5,"range":8},
          "search":{"objective":"final_spread","population":4,"seed":9}})",
      &s, &o, &error))
      << error;
  EXPECT_EQ(s.protocol, harness::ProtocolKind::kRealAA);
  EXPECT_EQ(o.objective, hunt::Objective::kFinalSpread);
  EXPECT_EQ(o.population, 4u);
  EXPECT_EQ(o.seed, 9u);

  EXPECT_FALSE(hunt::load_hunt_spec(
      R"({"scenario":{"protocol":"real_aa","n":8,"t":2},"budget":3})", &s, &o,
      &error));
  EXPECT_FALSE(hunt::load_hunt_spec(
      R"({"scenario":{"protocol":"real_aa","n":8,"t":2,"surprise":1}})", &s,
      &o, &error));
}

TEST(HuntTest, NonHuntableProtocolsAreRejected) {
  hunt::Scenario s = small_tree_scenario();
  s.protocol = harness::ProtocolKind::kAsyncTreeAA;
  EXPECT_THROW((void)hunt::materialize(s), std::invalid_argument);
  s.protocol = harness::ProtocolKind::kTreeAA;
  s.tree.reset();
  EXPECT_THROW((void)hunt::materialize(s), std::invalid_argument);
}

TEST(HuntTest, ObjectiveNamesRoundTrip) {
  for (const auto o :
       {hunt::Objective::kRoundsToEps, hunt::Objective::kFinalSpread,
        hunt::Objective::kLedgerMargin}) {
    const auto back = hunt::objective_from_name(hunt::objective_name(o));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, o);
  }
  EXPECT_FALSE(hunt::objective_from_name("coverage").has_value());
}

/// Pins hunt_report/1 and hunt_corpus/1 bytes across commits (FNV-1a 64),
/// one scenario per huntable protocol on a tiny budget, serial and on four
/// workers. The report echoes the round budget and split schedule length
/// the scenario derives, so a change to either moves the hash. A refactor
/// must leave every hash untouched; a change that alters one on purpose
/// re-records it and says why.
TEST(HuntTest, ReportAndCorpusBytesGolden) {
  hunt::Scenario tree = small_tree_scenario();
  tree.update = realaa::UpdateRule::kTrimmedMidpoint;
  tree.random_inputs = true;
  tree.input_seed = 9;
  hunt::Scenario iterated_tree = small_tree_scenario();
  iterated_tree.name = "test-iterated-tree";
  iterated_tree.protocol = harness::ProtocolKind::kIteratedTreeAA;
  iterated_tree.n = 4;
  iterated_tree.t = 1;
  iterated_tree.tree = hunt::TreeSpec{"random", 12, 2};
  hunt::Scenario real = small_real_scenario();
  real.mode = realaa::IterationMode::kTight;
  hunt::Scenario iterated_real = small_real_scenario();
  iterated_real.name = "test-iterated-real";
  iterated_real.protocol = harness::ProtocolKind::kIteratedRealAA;
  iterated_real.n = 7;
  iterated_real.known_range = 64.0;
  iterated_real.random_inputs = true;

  struct Golden {
    hunt::Scenario scenario;
    hunt::Objective objective;
    std::uint64_t report_hash;
    std::uint64_t corpus_hash;
  };
  const Golden kGolden[] = {
      {tree, hunt::Objective::kRoundsToEps,
       0xb6715b87630a7f6cull, 0xae9cf4e4f3436034ull},
      {iterated_tree, hunt::Objective::kLedgerMargin,
       0x431ad9cecc060485ull, 0x9bdd163e206b4f5aull},
      {real, hunt::Objective::kFinalSpread,
       0x6de1bfbfcdf774bfull, 0xf1cf39b3a861e2aeull},
      {iterated_real, hunt::Objective::kRoundsToEps,
       0xa1c69868a8b0b1c0ull, 0x9518799c18b251b1ull},
  };
  for (const Golden& g : kGolden) {
    const auto m = hunt::materialize(g.scenario);
    for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
      SCOPED_TRACE(g.scenario.name + " at " + std::to_string(threads) +
                   " thread(s)");
      hunt::HuntOptions options = tiny_budget();
      options.objective = g.objective;
      options.threads = threads;
      const auto result = hunt::run_hunt(m, options);
      EXPECT_EQ(fnv1a64(hunt::hunt_report_json(m, options, result)),
                g.report_hash);
      EXPECT_EQ(fnv1a64(hunt::corpus_jsonl(m, options, result)),
                g.corpus_hash);
    }
  }
}

}  // namespace
}  // namespace treeaa

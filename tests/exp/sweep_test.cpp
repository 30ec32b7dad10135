// End-to-end sweep engine: cell determinism, error placement, tree sharing,
// and the headline guarantee — byte-identical reports at any thread count.
#include "exp/sweep.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "exp/report.h"
#include "exp/spec.h"
#include "support/golden.h"

namespace treeaa::exp {
namespace {

using test_support::fnv1a64;

// 64 cells mixing both value domains, every applicable adversary, and a
// repeat axis — small trees so the whole sweep stays fast under ctest.
constexpr const char* kMixedSpec = R"({
  "name": "mixed",
  "seed": 2024,
  "repeats": 2,
  "scenarios": [
    {"protocols": ["tree_aa", "iterated_tree_aa"],
     "tree": {"families": ["path", "random"], "sizes": [12, 24]},
     "n": [7],
     "adversaries": ["none", "silent", "fuzz"],
     "inputs": "random"},
    {"protocols": ["real_aa", "iterated_real_aa"],
     "range": [1024, 65536],
     "n": [7],
     "adversaries": ["none", "silent"]}
  ]
})";

TEST(Sweep, MixedSpecHas64Cells) {
  const SweepSpec spec = spec_from_json(kMixedSpec);
  // Scenario 1: 2 protocols x 2 families x 2 sizes x 3 adversaries x 2
  // repeats = 48; scenario 2: 2 protocols x 2 ranges x 2 adversaries x 2
  // repeats = 16.
  EXPECT_EQ(expand(spec).size(), 48u + 16u);
}

TEST(Sweep, ReportIsByteIdenticalAcrossThreadCounts) {
  // The subsystem's core promise: per-cell RNG is a pure function of
  // (spec.seed, cell.index), workers write only their own slots, and the
  // report serializes in cell order — so 1, 2, and 8 threads must produce
  // the same bytes.
  const SweepSpec spec = spec_from_json(kMixedSpec);
  auto render = [&](std::size_t threads) {
    const SweepResult result = run_sweep(spec, SweepOptions{.threads = threads});
    return sweep_report_json(spec, result);
  };
  const std::string base = render(1);
  EXPECT_NE(base.find(kSweepReportSchema), std::string::npos);
  EXPECT_EQ(render(2), base);
  EXPECT_EQ(render(8), base);
}

TEST(Sweep, RunCellIsDeterministic) {
  const SweepSpec spec = spec_from_json(kMixedSpec);
  const std::vector<Cell> cells = expand(spec);
  for (const std::size_t index : {0u, 17u, 60u}) {
    const CellResult a = run_cell(spec, cells[index]);
    const CellResult b = run_cell(spec, cells[index]);
    EXPECT_EQ(a.ok, b.ok);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.spread, b.spread);
    EXPECT_EQ(a.honest_messages, b.honest_messages);
    EXPECT_EQ(a.honest_bytes, b.honest_bytes);
  }
}

TEST(Sweep, RepeatsDifferWithoutSharedTreeSeed) {
  // No tree_seed in kMixedSpec: the two repeats of a random-family cell grow
  // different trees (and draw different inputs) from their own forked
  // streams. Indices 12/13 are the random/size-12/none repeat pair.
  const SweepSpec spec = spec_from_json(kMixedSpec);
  const std::vector<Cell> cells = expand(spec);
  ASSERT_EQ(cells[12].family, "random");
  ASSERT_EQ(cells[12].repeat, 0u);
  ASSERT_EQ(cells[13].repeat, 1u);
  const CellResult r0 = run_cell(spec, cells[12]);
  const CellResult r1 = run_cell(spec, cells[13]);
  EXPECT_TRUE(r0.ok);
  EXPECT_TRUE(r1.ok);
  EXPECT_EQ(r0.tree_n, r1.tree_n);
  // Not the same instance/run: at least one observable differs (deterministic
  // given the pinned seed 2024).
  EXPECT_TRUE(r0.tree_diameter != r1.tree_diameter ||
              r0.honest_bytes != r1.honest_bytes || r0.spread != r1.spread);
}

TEST(Sweep, SharedTreeSeedPinsTheInstance) {
  const SweepSpec spec = spec_from_json(R"({
    "name": "shared", "seed": 5, "repeats": 2,
    "scenarios": [
      {"protocols": ["tree_aa"],
       "tree": {"families": ["random"], "sizes": [20], "tree_seed": 11},
       "n": [7]}
    ]
  })");
  const std::vector<Cell> cells = expand(spec);
  ASSERT_EQ(cells.size(), 2u);
  const CellResult r0 = run_cell(spec, cells[0]);
  const CellResult r1 = run_cell(spec, cells[1]);
  EXPECT_EQ(r0.tree_diameter, r1.tree_diameter);
}

TEST(Sweep, ErrorCellsLandInTheirOwnSlot) {
  // A throwing cell (unknown family — only reachable with a hand-built work
  // list, spec_from_json rejects it earlier) must surface as ok = false in
  // its own row, with the healthy neighbor unaffected.
  SweepSpec spec;
  spec.name = "err";
  spec.seed = 3;
  Cell bad;
  bad.index = 0;
  bad.protocol = Protocol::kTreeAA;
  bad.family = "bogus";
  bad.tree_size = 16;
  bad.n = 7;
  bad.t = 2;
  Cell good = bad;
  good.index = 1;
  good.family = "path";
  const SweepResult result = run_sweep(spec, {bad, good}, {.threads = 2});
  ASSERT_EQ(result.cells.size(), 2u);
  EXPECT_FALSE(result.cells[0].ok);
  EXPECT_NE(result.cells[0].error.find("unknown tree family"),
            std::string::npos);
  EXPECT_FALSE(result.cells[0].aa_ok());
  EXPECT_TRUE(result.cells[1].ok);
  EXPECT_TRUE(result.cells[1].aa_ok());
  // The report keeps the error row, flags it, and still renders.
  const std::string json = sweep_report_json(spec, result);
  EXPECT_NE(json.find("\"ok\":false"), std::string::npos);
  EXPECT_NE(json.find("\"error\":"), std::string::npos);
}

TEST(Sweep, VerdictsHoldOnCleanRuns) {
  const SweepSpec spec = spec_from_json(kMixedSpec);
  const SweepResult result = run_sweep(spec, SweepOptions{.threads = 2});
  for (const CellResult& r : result.cells) {
    ASSERT_TRUE(r.ok) << "cell " << r.cell.index << ": " << r.error;
    EXPECT_TRUE(r.aa_ok()) << "cell " << r.cell.index;
    EXPECT_LE(r.rounds, r.round_budget) << "cell " << r.cell.index;
    EXPECT_GE(r.rounds, 1u);
    if (is_vertex_protocol(r.cell.protocol)) {
      EXPECT_EQ(r.tree_n, r.cell.tree_size);
      EXPECT_GE(r.tree_diameter, 1u);
    }
    EXPECT_GT(r.honest_messages, 0u);
  }
  EXPECT_EQ(result.timings.cells, result.cells.size());
}

TEST(Sweep, TimingSectionIsOptIn) {
  const SweepSpec spec = spec_from_json(R"({
    "name": "tiny",
    "scenarios": [
      {"protocols": ["real_aa"], "range": [64], "n": [7]}
    ]
  })");
  const SweepResult result = run_sweep(spec, SweepOptions{});
  const std::string canonical = sweep_report_json(spec, result);
  EXPECT_EQ(canonical.find("\"timing\""), std::string::npos);
  const std::string timed =
      sweep_report_json(spec, result, {.include_timings = true});
  EXPECT_NE(timed.find("\"timing\""), std::string::npos);
}

TEST(Sweep, RunThreadsNeverChangeReport) {
  // Intra-cell engine lanes (run_threads) compose with the cell fan-out
  // (threads) under a shared budget; every combination — including 0 =
  // hardware — must serialize to the same bytes as the fully serial sweep.
  const SweepSpec spec = spec_from_json(kMixedSpec);
  auto render = [&](const SweepOptions& opts) {
    const SweepResult result = run_sweep(spec, opts);
    return sweep_report_json(spec, result);
  };
  const std::string base = render({.threads = 1});
  EXPECT_EQ(render({.threads = 1, .run_threads = 4}), base);
  EXPECT_EQ(render({.threads = 8, .run_threads = 4}), base);
  EXPECT_EQ(render({.threads = 2, .run_threads = 0}), base);
}

// kMixedSpec's cells all have n = 7, which the engine runs serial at any
// run_threads. Here one cell is wide enough (n = 32) for four granted
// lanes: the report still matches the serial sweep, the wide cells report
// the lanes they were granted, and the cell fan-out's share of the
// budget is divided by the widest cell's lanes, not by run_threads.
TEST(Sweep, RunThreadsNeverChangeReportAtGrantedLanes) {
  const SweepSpec spec = spec_from_json(R"({
    "name": "wide",
    "seed": 9,
    "scenarios": [
      {"protocols": ["real_aa"], "range": [1024], "eps": [1],
       "n": [7, 32], "adversaries": ["none", "fuzz"], "inputs": "random"}
    ]
  })");
  const std::string base =
      sweep_report_json(spec, run_sweep(spec, SweepOptions{.threads = 1}));
  EXPECT_EQ(sweep_report_json(
                spec, run_sweep(spec, SweepOptions{.threads = 8,
                                                   .run_threads = 4})),
            base);
  const SweepResult wide =
      run_sweep(spec, SweepOptions{.threads = 8, .run_threads = 4,
                                   .collect_reports = true});
  EXPECT_EQ(wide.timings.threads, 2u);
  for (CellResult cell : wide.cells) {
    EXPECT_EQ(cell.report.timing.gauge("pool_lanes").value(),
              cell.cell.n == 32 ? 4.0 : 0.0)
        << "n=" << cell.cell.n;
  }

  // With only the n = 7 cells, every engine is serial and the cell fan-out
  // keeps the whole budget.
  const SweepSpec narrow = spec_from_json(kMixedSpec);
  EXPECT_EQ(
      run_sweep(narrow, SweepOptions{.threads = 4, .run_threads = 4})
          .timings.threads,
      4u);
}

// Every sweep protocol, every adversary kind the grid accepts (split and
// split1 included), both input kinds and a non-default engine, on instances
// small enough for ctest.
constexpr const char* kGoldenSpec = R"({
  "name": "golden",
  "seed": 77,
  "scenarios": [
    {"protocols": ["tree_aa"],
     "tree": {"families": ["random", "caterpillar"], "sizes": [14]},
     "engine": ["bdh", "classic"],
     "iteration_mode": "tight",
     "n": [7],
     "adversaries": ["silent", "fuzz", "split"],
     "inputs": "random"},
    {"protocols": ["iterated_tree_aa"],
     "tree": {"families": ["spider"], "sizes": [12], "tree_seed": 4},
     "n": [4],
     "adversaries": ["none", "fuzz"]},
    {"protocols": ["real_aa"],
     "range": [1024],
     "eps": [0.5],
     "update": ["trimmed_mean", "trimmed_midpoint"],
     "n": [7],
     "adversaries": ["fuzz", "split", "split1"],
     "inputs": "random"},
    {"protocols": ["iterated_real_aa"],
     "range": [64],
     "n": [4],
     "adversaries": ["silent"]},
    {"protocols": ["block_aa"],
     "graph": {"families": ["clique_chain", "cactus"], "sizes": [12]},
     "n": [7],
     "adversaries": ["fuzz", "split"],
     "inputs": "random"}
  ]
})";

/// Pins the canonical sweep_report/1 bytes, per-cell run reports embedded,
/// across commits: the FNV-1a 64 of the whole document. The same bytes must
/// come out at every cell-thread and engine-lane split. A refactor of the
/// cell runner must leave the hash untouched; a change that alters it on
/// purpose re-records it and says why.
TEST(Sweep, ReportBytesGolden) {
  constexpr std::uint64_t kGoldenHash = 0xa2dbb56ff434ea27ull;
  const SweepSpec spec = spec_from_json(kGoldenSpec);
  ASSERT_EQ(expand(spec).size(), 12u + 2u + 6u + 1u + 4u);
  for (const SweepOptions& opts :
       {SweepOptions{.threads = 1, .collect_reports = true},
        SweepOptions{.threads = 3, .collect_reports = true},
        SweepOptions{.threads = 4, .run_threads = 2,
                     .collect_reports = true}}) {
    SCOPED_TRACE("threads " + std::to_string(opts.threads) + ", run_threads " +
                 std::to_string(opts.run_threads));
    const SweepResult result = run_sweep(spec, opts);
    for (const CellResult& r : result.cells) {
      EXPECT_TRUE(r.ok) << "cell " << r.cell.index << ": " << r.error;
    }
    const std::string json =
        sweep_report_json(spec, result, {.include_cell_reports = true});
    EXPECT_EQ(fnv1a64(json), kGoldenHash);
  }
}

}  // namespace
}  // namespace treeaa::exp

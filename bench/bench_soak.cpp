// E9 (beyond the paper's tables) — reliability soak: hundreds of randomized
// adversarial TreeAA executions, reporting violations of each AA property.
//
// Every cell sweeps random trees, random inputs, random corruption sets and
// a randomly chosen adversary strategy (silent / crash / fuzz / replay /
// split at either phase). The claim under test is binary: the counts in the
// violation columns are zero. This is the evaluation a systems venue would
// ask for that the brief announcement could not include.
//
// Seeding is sweep-style: every (family, trial) cell draws its Rng as
// Rng(kSoakSeed).fork(cell), so a cell's execution is independent of how
// many cells ran before it — shrinking the sweep with --runs N keeps the
// surviving cells bit-identical. `--threads K` runs the synchronous engine
// on up to K lanes, one per eight parties at most, so only the n = 16..18
// runs take a second lane (the async soak is untouched: its model has no
// lock-step phases to fan out); violation counts and metrics are
// byte-identical for every K, and the value is echoed in the report's
// "params" object.
// `--metrics <file|->` (or TREEAA_METRICS) additionally emits one
// obs::RunReport per synchronous TreeAA run as a "treeaa.bench_report/1"
// document via the shared BenchReporter. Unknown flags are an error (exit
// 2), not silently ignored.
#include <cstdlib>
#include <iostream>
#include <memory>
#include <string>

#include "obs/bench_report.h"
#include "common/table.h"
#include "common_flags.h"
#include "core/api.h"
#include "harness/runner.h"
#include "realaa/adversaries.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

std::unique_ptr<sim::Adversary> random_adversary(
    const LabeledTree& tree, std::size_t n, std::size_t t, Rng& rng,
    std::uint64_t seed) {
  const auto victims = sim::random_parties(n, t, rng);
  switch (rng.index(6)) {
    case 0:
      return std::make_unique<sim::SilentAdversary>(victims);
    case 1: {
      std::vector<sim::CrashAdversary::Crash> crashes;
      for (const PartyId v : victims) {
        crashes.push_back(
            {v, static_cast<Round>(1 + rng.index(12)), rng.unit()});
      }
      return std::make_unique<sim::CrashAdversary>(std::move(crashes));
    }
    case 2:
      return std::make_unique<sim::FuzzAdversary>(victims, seed, 24, 48);
    case 3:
      return std::make_unique<sim::ReplayAdversary>(victims, seed, 24);
    case 4: {
      realaa::SplitAdversary::Options opts;
      opts.config = core::paths_finder_config(tree, n, t, {});
      opts.corrupt = victims;
      return std::make_unique<realaa::SplitAdversary>(std::move(opts));
    }
    default: {
      realaa::SplitAdversary::Options opts;
      opts.config = core::projection_config(tree, n, t, {});
      opts.corrupt = victims;
      opts.start_round = static_cast<Round>(
          core::paths_finder_config(tree, n, t, {}).rounds() + 1);
      return std::make_unique<realaa::SplitAdversary>(std::move(opts));
    }
  }
}

constexpr std::uint64_t kSoakSeed = 424242;

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("soak", argc, argv);
  std::size_t runs_per_family = 250;
  std::size_t threads = 1;
  const tools::UsageFn fail = [](const std::string& m) {
    std::cerr << m << "\n";
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value after " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--runs") {
      runs_per_family = tools::parse_unsigned(arg, next(), fail);
    } else if (arg == "--threads") {
      threads = tools::parse_unsigned(arg, next(), fail);
    } else if (arg == "--metrics") {
      next();  // consumed by the BenchReporter above
    } else {
      std::cerr << "unknown option '" << arg
                << "' (bench_soak takes --runs N, --threads K, "
                   "--metrics <file|->)\n";
      return 2;
    }
  }
  if (runs_per_family == 0) {
    std::cerr << "--runs must be positive\n";
    return 2;
  }
  reporter.add_param("threads", threads);

  std::cout << "=== E9: randomized adversarial soak (TreeAA) ===\n";
  Table table({"family", "runs", "validity violations",
               "1-agreement violations", "termination failures",
               "max rounds"});
  std::uint64_t block = 0;
  for (const TreeFamily family : all_tree_families()) {
    std::size_t validity = 0, agreement = 0, termination = 0;
    Round max_rounds = 0;
    ++block;
    for (std::size_t trial = 0; trial < runs_per_family; ++trial) {
      // Each cell's stream depends only on (kSoakSeed, block, trial), never
      // on the number or outcome of earlier cells — so --runs shrinks the
      // sweep without perturbing the surviving cells.
      Rng rng = Rng(kSoakSeed).fork((block << 32) | trial);
      const auto tree = make_family_tree(family, 5 + rng.index(150), rng);
      const std::size_t n = 4 + rng.index(15);
      const std::size_t t = (n - 1) / 3;
      const auto inputs = harness::random_vertex_inputs(tree, n, rng);
      auto adversary = random_adversary(tree, n, t, rng, rng.next());
      try {
        const auto run = core::run_tree_aa(
            tree, inputs, t, {}, std::move(adversary),
            reporter.next_run(std::string("e9 ") + tree_family_name(family) +
                              " trial=" + std::to_string(trial)),
            sim::EngineOptions{threads});
        max_rounds = std::max(max_rounds, run.rounds);
        std::vector<VertexId> honest_inputs;
        for (PartyId p = 0; p < n; ++p) {
          if (run.outputs[p].has_value()) honest_inputs.push_back(inputs[p]);
        }
        const auto check = core::check_agreement(tree, honest_inputs,
                                                 run.honest_outputs());
        if (!check.valid) ++validity;
        if (!check.one_agreement) ++agreement;
      } catch (const std::exception& e) {
        ++termination;
        std::cout << "!! exception: " << e.what() << "\n";
      }
    }
    table.row({tree_family_name(family), std::to_string(runs_per_family),
               std::to_string(validity), std::to_string(agreement),
               std::to_string(termination), std::to_string(max_rounds)});
  }
  std::cout << render_for_output(table)
            << "(every violation column must read 0)\n\n";

  // Async soak: the NR baseline in its native model under hostile
  // scheduling with silent Byzantine parties.
  std::cout << "=== E9b: randomized soak (async NR baseline) ===\n";
  Table async_table({"scheduler", "runs", "validity violations",
                     "1-agreement violations", "liveness failures"});
  for (const auto sched : {async::SchedulerKind::kRandom,
                           async::SchedulerKind::kLifo,
                           async::SchedulerKind::kFifo}) {
    std::size_t validity = 0, agreement = 0, liveness = 0;
    const std::size_t runs = std::max<std::size_t>(1, runs_per_family / 3);
    ++block;
    for (std::size_t trial = 0; trial < runs; ++trial) {
      Rng rng = Rng(kSoakSeed).fork((block << 32) | trial);
      const auto tree = make_random_tree(4 + rng.index(60), rng);
      const std::size_t n = 4 + rng.index(9);
      const std::size_t t = (n - 1) / 3;
      const auto inputs = harness::random_vertex_inputs(tree, n, rng);
      const auto corrupt = sim::random_parties(n, t, rng);
      try {
        const auto run = harness::run_async_tree_aa(
            tree, n, t, inputs, {corrupt, sched, rng.next()});
        std::vector<VertexId> honest_inputs;
        for (PartyId p = 0; p < n; ++p) {
          if (run.outputs[p].has_value()) honest_inputs.push_back(inputs[p]);
        }
        const auto check = core::check_agreement(tree, honest_inputs,
                                                 run.honest_outputs());
        if (!check.valid) ++validity;
        if (!check.one_agreement) ++agreement;
      } catch (const std::exception&) {
        ++liveness;
      }
    }
    const char* name = sched == async::SchedulerKind::kRandom ? "random"
                       : sched == async::SchedulerKind::kLifo ? "lifo"
                                                              : "fifo";
    async_table.row({name, std::to_string(runs), std::to_string(validity),
                     std::to_string(agreement), std::to_string(liveness)});
  }
  std::cout << render_for_output(async_table)
            << "(liveness failures would mean the witness machinery "
               "deadlocked -- must be 0)\n";
  return reporter.flush() ? 0 : 1;
}

// E6 — message and communication complexity (paper §1.2: the gradecast
// distribution mechanism of [6] costs O(R * n^3) communication).
//
// With batched gradecast every party broadcasts once per sub-round, so the
// protocol sends exactly 3 * n^2 messages per iteration; the echo/support
// messages carry n slots each, so bytes scale as Theta(R * n^3). The table
// reports measured counts and the normalized constants, which should be
// flat across n — that flatness is the complexity claim.
//
// `--threads K` runs every engine on K lanes; counts are byte-identical
// for any K (the engine's determinism contract) and the value is echoed
// in the report's "params" object. Unknown flags are an error (exit 2),
// not silently ignored.
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.h"
#include "common_flags.h"
#include "core/api.h"
#include "harness/runner.h"
#include "obs/bench_report.h"
#include "sim/strategies.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

void realaa_table(obs::BenchReporter& reporter, std::size_t threads) {
  std::cout << "=== E6a: RealAA traffic vs n (D = 1e4, eps = 1, honest run) "
               "===\n";
  Table table({"n", "t", "rounds", "messages", "msg/(R n^2)", "bytes",
               "bytes/(R n^3)"});
  for (std::size_t n : {4u, 8u, 16u, 32u, 64u}) {
    const std::size_t t = (n - 1) / 3;
    realaa::Config cfg;
    cfg.n = n;
    cfg.t = t;
    cfg.eps = 1.0;
    cfg.known_range = 1e4;
    const auto inputs = harness::spread_real_inputs(n, 0.0, 1e4);
    const auto run = harness::run_real_aa(
        cfg, inputs, nullptr, reporter.next_run("e6a n=" + std::to_string(n)),
        threads);
    const double R = static_cast<double>(run.rounds) / 3.0;
    const double n2 = static_cast<double>(n) * static_cast<double>(n);
    const auto msgs = run.traffic.honest_messages();
    const auto bytes = run.traffic.honest_bytes();
    table.row({std::to_string(n), std::to_string(t),
               std::to_string(run.rounds), std::to_string(msgs),
               fmt_double(static_cast<double>(msgs) / (3 * R * n2)),
               std::to_string(bytes),
               fmt_double(static_cast<double>(bytes) /
                          (3 * R * n2 * static_cast<double>(n)))});
  }
  std::cout << render_for_output(table)
            << "(flat normalized columns = Theta(R n^2) messages, "
               "Theta(R n^3) bytes)\n\n";
}

void treeaa_table(obs::BenchReporter& reporter, std::size_t threads) {
  std::cout << "=== E6b: full TreeAA traffic (1000-vertex random tree) ===\n";
  Table table({"n", "t", "rounds", "messages", "bytes", "bytes/party/round"});
  Rng rng(66);
  const auto tree = make_random_tree(1000, rng);
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    const std::size_t t = (n - 1) / 3;
    const auto inputs = harness::spread_vertex_inputs(tree, n);
    const auto run =
        core::run_tree_aa(tree, inputs, t, {}, nullptr,
                          reporter.next_run("e6b n=" + std::to_string(n)),
                          sim::EngineOptions{threads});
    const auto bytes = run.traffic.honest_bytes();
    table.row({std::to_string(n), std::to_string(t),
               std::to_string(run.rounds),
               std::to_string(run.traffic.honest_messages()),
               std::to_string(bytes),
               fmt_double(static_cast<double>(bytes) /
                          (static_cast<double>(n) *
                           static_cast<double>(run.rounds)))});
  }
  std::cout << render_for_output(table) << "\n";
}

void adversarial_traffic_table(obs::BenchReporter& reporter,
                               std::size_t threads) {
  std::cout << "=== E6c: adversarial traffic is accounted separately ===\n";
  Table table({"adversary", "honest msgs", "adversary msgs"});
  realaa::Config cfg;
  cfg.n = 10;
  cfg.t = 3;
  cfg.eps = 1.0;
  cfg.known_range = 1e3;
  const auto inputs = harness::spread_real_inputs(10, 0.0, 1e3);
  {
    const auto run = harness::run_real_aa(
        cfg, inputs, nullptr, reporter.next_run("e6c none"), threads);
    table.row({"none", std::to_string(run.traffic.honest_messages()),
               std::to_string(run.traffic.adversary_messages())});
  }
  {
    auto adv = std::make_unique<sim::FuzzAdversary>(
        std::vector<PartyId>{8, 9}, 3, 50, 64);
    const auto run = harness::run_real_aa(
        cfg, inputs, std::move(adv), reporter.next_run("e6c fuzz"), threads);
    table.row({"fuzz", std::to_string(run.traffic.honest_messages()),
               std::to_string(run.traffic.adversary_messages())});
  }
  std::cout << render_for_output(table);
}

}  // namespace

int main(int argc, char** argv) {
  obs::BenchReporter reporter("message_complexity", argc, argv);
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
    if (arg == "--threads") {
      threads = tools::parse_unsigned(arg, next(), fail);
    } else if (arg == "--metrics") {
      next();  // consumed by the BenchReporter above
    } else {
      std::cerr << "unknown option '" << arg
                << "' (bench_message_complexity takes --threads K, "
                   "--metrics <file|->)\n";
      return 2;
    }
  }
  reporter.add_param("threads", threads);
  realaa_table(reporter, threads);
  treeaa_table(reporter, threads);
  adversarial_traffic_table(reporter, threads);
  return reporter.flush() ? 0 : 1;
}

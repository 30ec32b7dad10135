// E10 (engineering) — simulator throughput: wall-clock cost of full
// protocol executions. Not a paper claim; included so users can size
// experiments (how big an n / |V| sweep fits in a CI run).
//
// Two modes:
//
//   bench_sim_throughput [gbench flags]
//     The historical google-benchmark sweep over n / |V|.
//
//   bench_sim_throughput --pinned [--out <file|->]
//                        [--check-against <baseline.json>]
//                        [--max-regression <pct>] [--reps-scale <x>]
//                        [--threads <k>]
//     The perf-regression suite: nine pinned scenarios (one per hot
//     subsystem — gradecast codec+counting, the slot codec in isolation
//     (gradecast_codec_n64), RealAA iteration loop, TreeAA end-to-end on
//     1000- and 4096-vertex trees, BlockAA on a 600-vertex clique chain,
//     plus tree_aa_1000_t8, tree_aa_4096_t8 and realaa_n64_t8 pinned at
//     8 engine lanes) run a fixed number of repetitions and report
//     messages/second as a "treeaa.perf_report/1" JSON document (--out,
//     falling back to TREEAA_METRICS, "-" = stdout); each scenario
//     records its engine lane count (`threads`), the host's logical CPU
//     count (`host_cpus`) and the effective worker count (`workers`).
//     --threads sets the lane count of the base scenarios (default 1, the
//     serial baseline); the *_t8 scenarios always pin 8 lanes, and
//     message counts never depend on the lane count. With --check-against
//     the measured throughput is gated against a checked-in baseline
//     (bench/perf_baseline.json): any scenario more than --max-regression
//     percent (default 25) below its baseline fails the run with exit
//     code 1. docs/PERF.md describes the schema and how to refresh the
//     baseline.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common_flags.h"
#include "core/api.h"
#include "common/json_value.h"
#include "gradecast/gradecast.h"
#include "gradecast/wire.h"
#include "graphs/block_aa.h"
#include "graphs/block_index.h"
#include "graphs/generators.h"
#include "harness/runner.h"
#include "obs/json.h"
#include "obs/sink.h"
#include "perf/parallel.h"
#include "sim/engine.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

// --- Shared gradecast host ---------------------------------------------------

/// Hosts a single BatchGradecast per party (every party leads with a
/// one-byte value).
class GradecastHost final : public sim::Process {
 public:
  GradecastHost(PartyId self, std::size_t n, std::size_t t)
      : batch_(self, n, t, Bytes{static_cast<std::uint8_t>(self)}) {}
  void on_round_begin(Round r, sim::Mailer& out) override {
    batch_.on_step_begin(r - 1, out);
  }
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override {
    batch_.on_step_end(r - 1, inbox);
  }

 private:
  gradecast::BatchGradecast batch_;
};

std::uint64_t gradecast_once(std::size_t n, std::size_t t,
                             std::size_t threads = 1) {
  sim::Engine engine(n, std::max<std::size_t>(t, 1),
                     sim::EngineOptions{threads});
  for (PartyId p = 0; p < n; ++p) {
    engine.set_process(p, std::make_unique<GradecastHost>(p, n, t));
  }
  engine.run(gradecast::kRounds);
  return engine.stats().total_messages();
}

// --- google-benchmark sweep (the historical mode) ----------------------------

void BM_GradecastBatch(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = (n - 1) / 3;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gradecast_once(n, t));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n * n));
}
BENCHMARK(BM_GradecastBatch)->Arg(4)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_RealAAFullRun(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  const std::size_t t = (n - 1) / 3;
  realaa::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = 1.0;
  cfg.known_range = 1e4;
  const auto inputs = harness::spread_real_inputs(n, 0.0, 1e4);
  for (auto _ : state) {
    const auto run = harness::run_real_aa(cfg, inputs);
    benchmark::DoNotOptimize(run.outputs[0]);
  }
}
BENCHMARK(BM_RealAAFullRun)->Arg(4)->Arg(16)->Arg(64);

void BM_TreeAAFullRun(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Rng rng(0xBEEF + size);
  const auto tree = make_random_tree(size, rng);
  const std::size_t n = 7, t = 2;
  const auto inputs = harness::spread_vertex_inputs(tree, n);
  for (auto _ : state) {
    const auto run = core::run_tree_aa(tree, inputs, t);
    benchmark::DoNotOptimize(run.rounds);
  }
  state.SetLabel("n=7");
}
BENCHMARK(BM_TreeAAFullRun)->Arg(100)->Arg(1000)->Arg(10000);

void BM_AsyncTreeAAFullRun(benchmark::State& state) {
  const std::size_t size = static_cast<std::size_t>(state.range(0));
  Rng rng(0xF00D + size);
  const auto tree = make_random_tree(size, rng);
  const std::size_t n = 7, t = 2;
  const auto inputs = harness::spread_vertex_inputs(tree, n);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    const auto run = harness::run_async_tree_aa(
        tree, n, t, inputs, {{}, async::SchedulerKind::kRandom, seed++});
    benchmark::DoNotOptimize(run.deliveries);
  }
}
BENCHMARK(BM_AsyncTreeAAFullRun)->Arg(100)->Arg(1000);

// --- Pinned perf-regression suite --------------------------------------------

struct PinnedResult {
  std::string name;
  std::size_t reps = 0;
  std::size_t threads = 1;      // engine lanes the scenario pinned
  std::size_t host_cpus = 0;    // std::thread::hardware_concurrency()
  std::size_t workers = 1;      // effective WorkerPool workers for `threads`
  std::uint64_t messages = 0;   // total over all reps
  std::uint64_t wall_ns = 0;    // total over all reps
  double messages_per_sec = 0.0;
};

/// One fixed scenario: run() executes one full protocol execution and
/// returns the number of simulator messages it moved. `threads` is the
/// engine lane count the scenario runs with; it changes only the wall
/// clock, never the message counts (the engine's determinism contract).
template <typename Run>
PinnedResult run_pinned_scenario(const std::string& name, std::size_t reps,
                                 double reps_scale, std::size_t threads,
                                 Run&& run) {
  const auto scaled = std::max<std::size_t>(
      1, static_cast<std::size_t>(static_cast<double>(reps) * reps_scale));
  // A few unmeasured executions to fault in code and warm the allocator,
  // mirroring google-benchmark's warmup.
  for (std::size_t i = 0; i < 3; ++i) (void)run();
  PinnedResult result;
  result.name = name;
  result.reps = scaled;
  result.threads = threads;
  // Recorded so a checked-in report says what hardware produced it: the
  // host's logical CPU count and the worker count the pool would actually
  // use for this lane count (respects TREEAA_FORCE_WORKERS).
  result.host_cpus = std::thread::hardware_concurrency();
  result.workers = perf::WorkerPool::default_workers(threads);
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < scaled; ++i) result.messages += run();
  const auto end = std::chrono::steady_clock::now();
  result.wall_ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - start)
          .count());
  result.messages_per_sec = result.wall_ns == 0
                                ? 0.0
                                : static_cast<double>(result.messages) * 1e9 /
                                      static_cast<double>(result.wall_ns);
  return result;
}

/// The pinned scenarios. Fixed inputs and seeds: the message counts are
/// deterministic, only the wall clock varies between runs. `threads` sets
/// the engine lane count for the three base scenarios (the CLI default is
/// 1, the serial baseline); the *_t8 scenarios pin 8 lanes regardless, so
/// one report always carries a serial/parallel pair to compare.
std::vector<PinnedResult> run_pinned_suite(double reps_scale,
                                           std::size_t threads) {
  std::vector<PinnedResult> results;

  // Gradecast batch, n=32: the codec + counting hot path.
  results.push_back(
      run_pinned_scenario("gradecast_n32", 60, reps_scale, threads,
                          [&] { return gradecast_once(32, 10, threads); }));

  // RealAA full run, n=16: the iteration loop over gradecast.
  {
    realaa::Config cfg;
    cfg.n = 16;
    cfg.t = 5;
    cfg.eps = 1.0;
    cfg.known_range = 1e4;
    const auto inputs = harness::spread_real_inputs(16, 0.0, 1e4);
    results.push_back(
        run_pinned_scenario("realaa_n16", 40, reps_scale, threads, [&] {
          const auto run =
              harness::run_real_aa(cfg, inputs, nullptr, nullptr, threads);
          return run.traffic.total_messages();
        }));
  }

  // TreeAA end-to-end on a 1000-vertex random tree: tree queries +
  // PathsFinder + projection.
  {
    Rng rng(0xBEEF + 1000);
    const auto tree = make_random_tree(1000, rng);
    const auto inputs = harness::spread_vertex_inputs(tree, 7);
    results.push_back(
        run_pinned_scenario("tree_aa_1000", 120, reps_scale, threads, [&] {
          const auto run = core::run_tree_aa(tree, inputs, 2, {}, nullptr,
                                             nullptr,
                                             sim::EngineOptions{threads});
          return run.traffic.total_messages();
        }));

    // The same TreeAA instance pinned at 8 lanes: the broadcast fan-out /
    // parallel-phase scenario. Message counts must equal tree_aa_1000's.
    results.push_back(
        run_pinned_scenario("tree_aa_1000_t8", 120, reps_scale, 8, [&] {
          const auto run = core::run_tree_aa(tree, inputs, 2, {}, nullptr,
                                             nullptr, sim::EngineOptions{8});
          return run.traffic.total_messages();
        }));
  }

  // TreeAA on a 4096-vertex random tree, serial and at 8 lanes: the
  // multi-core scaling pair — large enough per-round work for the lane
  // fan-out to show, and the byte-identity pair the CI perf smoke compares
  // across thread counts.
  {
    Rng rng(0xBEEF + 4096);
    const auto tree = make_random_tree(4096, rng);
    const auto inputs = harness::spread_vertex_inputs(tree, 7);
    results.push_back(
        run_pinned_scenario("tree_aa_4096", 30, reps_scale, threads, [&] {
          const auto run = core::run_tree_aa(tree, inputs, 2, {}, nullptr,
                                             nullptr,
                                             sim::EngineOptions{threads});
          return run.traffic.total_messages();
        }));
    results.push_back(
        run_pinned_scenario("tree_aa_4096_t8", 30, reps_scale, 8, [&] {
          const auto run = core::run_tree_aa(tree, inputs, 2, {}, nullptr,
                                             nullptr, sim::EngineOptions{8});
          return run.traffic.total_messages();
        }));
  }

  // The gradecast slot codec in isolation: the exact-size batched encoder
  // and the zero-copy view decoder round-tripping a 64-slot echo vector (half
  // the slots carry 24-byte values). One "message" = one encode + decode.
  {
    std::vector<gradecast::Slot> slots(64);
    Rng rng(0xC0DEC);
    for (std::size_t i = 0; i < slots.size(); i += 2) {
      Bytes value(24);
      for (auto& b : value) {
        b = static_cast<std::uint8_t>(rng.index(256));
      }
      slots[i] = std::move(value);
    }
    results.push_back(
        run_pinned_scenario("gradecast_codec_n64", 40, reps_scale, 1, [&] {
          std::uint64_t msgs = 0;
          std::vector<gradecast::SlotView> views(slots.size());
          for (std::size_t i = 0; i < 2000; ++i) {
            const Bytes msg =
                gradecast::encode_slots(gradecast::kTagEcho, slots);
            if (!gradecast::decode_slots_view(gradecast::kTagEcho, msg,
                                              views)) {
              std::cerr << "gradecast_codec_n64: round-trip failed\n";
              std::exit(2);
            }
            benchmark::DoNotOptimize(views.data());
            ++msgs;
          }
          return msgs;
        }));
  }

  // BlockAA end-to-end on a ~600-vertex clique chain: the block-graph
  // reduction (BlockIndex build amortized out, gate resolution + graph-
  // metric queries in the loop).
  {
    const auto g = graphs::make_clique_chain(600);
    const graphs::BlockIndex index(g);
    const auto [end_a, end_b] = index.diameter_endpoints();
    std::vector<VertexId> inputs;
    for (std::size_t p = 0; p < 7; ++p) {
      inputs.push_back(p % 2 == 0 ? end_a : end_b);
    }
    results.push_back(
        run_pinned_scenario("block_aa_600", 60, reps_scale, threads, [&] {
          const auto run =
              graphs::run_block_aa(index, inputs, 2, {}, nullptr, nullptr,
                                   sim::EngineOptions{threads});
          return run.traffic.total_messages();
        }));
  }

  // RealAA at n=64 pinned at 8 lanes: enough parties per round for the
  // chunked fan-out to matter on multicore hosts.
  {
    realaa::Config cfg;
    cfg.n = 64;
    cfg.t = 21;
    cfg.eps = 1.0;
    cfg.known_range = 1e4;
    const auto inputs = harness::spread_real_inputs(64, 0.0, 1e4);
    results.push_back(
        run_pinned_scenario("realaa_n64_t8", 10, reps_scale, 8, [&] {
          const auto run =
              harness::run_real_aa(cfg, inputs, nullptr, nullptr, 8);
          return run.traffic.total_messages();
        }));
  }

  return results;
}

std::string perf_report_json(const std::vector<PinnedResult>& results) {
  std::string out;
  obs::JsonWriter w(out);
  w.begin_object();
  w.key("schema");
  w.value(std::string_view("treeaa.perf_report/1"));
  w.key("bench");
  w.value(std::string_view("sim_throughput_pinned"));
  w.key("scenarios");
  w.begin_array();
  for (const PinnedResult& r : results) {
    w.begin_object();
    w.key("name");
    w.value(std::string_view(r.name));
    w.key("reps");
    w.value(static_cast<std::uint64_t>(r.reps));
    w.key("threads");
    w.value(static_cast<std::uint64_t>(r.threads));
    w.key("host_cpus");
    w.value(static_cast<std::uint64_t>(r.host_cpus));
    w.key("workers");
    w.value(static_cast<std::uint64_t>(r.workers));
    w.key("messages");
    w.value(r.messages);
    w.key("wall_ns");
    w.value(r.wall_ns);
    w.key("messages_per_sec");
    w.value(r.messages_per_sec);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  out += '\n';
  return out;
}

/// Gates `results` against a perf_report/1 baseline document. Returns the
/// number of scenarios regressing more than `max_regression_pct`; unknown
/// or missing scenarios are reported but never fail the gate (so adding a
/// scenario does not require a lockstep baseline update).
int check_against_baseline(const std::vector<PinnedResult>& results,
                           const std::string& baseline_path,
                           double max_regression_pct, std::ostream& human) {
  std::ifstream in(baseline_path);
  if (!in) {
    std::cerr << "perf gate: cannot open baseline '" << baseline_path << "'\n";
    return 1;
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  const auto doc = treeaa::JsonValue::parse(buffer.str());
  if (!doc.has_value() || !doc->is_object()) {
    std::cerr << "perf gate: malformed baseline '" << baseline_path << "'\n";
    return 1;
  }
  const treeaa::JsonValue* scenarios = doc->find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array()) {
    std::cerr << "perf gate: baseline has no scenarios array\n";
    return 1;
  }

  int regressions = 0;
  for (const PinnedResult& r : results) {
    double baseline = 0.0;
    for (const treeaa::JsonValue& s : scenarios->items()) {
      const treeaa::JsonValue* name = s.find("name");
      const treeaa::JsonValue* rate = s.find("messages_per_sec");
      if (name != nullptr && name->is_string() && name->as_string() == r.name &&
          rate != nullptr && rate->is_number()) {
        baseline = rate->as_number();
      }
    }
    if (baseline <= 0.0) {
      std::cerr << "perf gate: no baseline for '" << r.name << "' (skipped)\n";
      continue;
    }
    const double floor = baseline * (1.0 - max_regression_pct / 100.0);
    const double delta_pct =
        (r.messages_per_sec / baseline - 1.0) * 100.0;
    human << "perf gate: " << r.name << " " << std::fixed
          << static_cast<std::uint64_t>(r.messages_per_sec)
          << " msgs/s vs baseline "
          << static_cast<std::uint64_t>(baseline) << " ("
          << (delta_pct >= 0 ? "+" : "") << delta_pct << "%)\n";
    if (r.messages_per_sec < floor) {
      std::cerr << "perf gate: FAIL " << r.name << " regressed more than "
                << max_regression_pct << "% (floor "
                << static_cast<std::uint64_t>(floor) << " msgs/s)\n";
      ++regressions;
    }
  }
  return regressions;
}

int run_pinned_mode(int argc, char** argv) {
  // Flag vocabulary from tools/common_flags: --threads plus the perf-gate
  // set (--out/--check-against/--max-regression/--reps-scale). Error strings
  // match the historical hand-rolled parser.
  const std::vector<std::string> args(argv + 1, argv + argc);
  tools::CommonFlagSet set;
  set.threads = true;
  set.bench_gate = true;
  tools::CommonFlags flags;
  const tools::UsageFn fail = [](const std::string& msg) {
    std::cerr << msg << "\n";
    std::exit(2);
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--pinned") continue;
    if (tools::parse_common_flag(args, i, set, flags, fail)) continue;
    std::cerr << "unknown --pinned option '" << args[i] << "'\n";
    return 2;
  }
  std::string out_path = obs::resolve_metrics_path(std::move(flags.out_path));
  // With the report on stdout, human summaries move to stderr so the
  // JSON stays machine-parseable (same convention as treeaa_cli).
  std::ostream& human = out_path == "-" ? std::cerr : std::cout;

  const auto results = run_pinned_suite(flags.reps_scale, flags.threads);
  for (const PinnedResult& r : results) {
    human << r.name << ": " << r.messages << " msgs in " << r.reps
          << " reps, "
          << static_cast<std::uint64_t>(r.messages_per_sec)
          << " msgs/s\n";
  }
  if (!out_path.empty() && !obs::write_sink(out_path, perf_report_json(results))) {
    return 2;
  }
  if (!flags.check_against.empty()) {
    return check_against_baseline(results, flags.check_against,
                                  flags.max_regression_pct, human) > 0
               ? 1
               : 0;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string_view(argv[i]) == "--pinned") {
      return run_pinned_mode(argc, argv);
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

// E10 (engineering) — simulator throughput: wall-clock cost of full
// protocol executions. Not a paper claim; included so users can size
// experiments (how big an n / |V| sweep fits in a CI run).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdint>
#include <memory>

#include "common/rng.h"
#include "core/api.h"
#include "gradecast/gradecast.h"
#include "harness/runner.h"
#include "sim/engine.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

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

std::uint64_t gradecast_once(std::size_t n, std::size_t t) {
  sim::Engine engine(n, std::max<std::size_t>(t, 1));
  for (PartyId p = 0; p < n; ++p) {
    engine.set_process(p, std::make_unique<GradecastHost>(p, n, t));
  }
  engine.run(gradecast::kRounds);
  return engine.stats().total_messages();
}

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

}  // namespace

BENCHMARK_MAIN();

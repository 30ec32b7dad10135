// E4 — ListConstruction and LCA machinery at scale (paper Lemma 2 and the
// Bender–Farach-Colton technique it builds on, reference [8]).
//
// Google-benchmark microbenchmarks: Euler-list construction and the whole
// perf::TreeIndex build (Euler list plus block RMQ) are O(|V|), and the
// index answers LCA and projection queries in O(1). The absolute numbers are
// machine-dependent; the shape (linear build, flat O(1) query) is the claim.
#include <benchmark/benchmark.h>

#include "common/rng.h"
#include "core/tree_aa.h"
#include "perf/tree_index.h"
#include "trees/euler.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

LabeledTree benchmark_tree(std::size_t n) {
  Rng rng(0xE0E0 + n);
  return make_random_chainy_tree(n, rng, 0.5);
}

void BM_EulerListConstruction(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    EulerList list(tree);
    benchmark::DoNotOptimize(list.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_EulerListConstruction)->Range(1 << 10, 1 << 18);

void BM_TreeIndexBuild(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    const perf::TreeIndex index(tree);
    benchmark::DoNotOptimize(index.lca(0, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_TreeIndexBuild)->Range(1 << 10, 1 << 18);

void BM_TreeIndexLcaQuery(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  const perf::TreeIndex index(tree);
  Rng rng(7);
  std::vector<std::pair<VertexId, VertexId>> queries(1024);
  for (auto& q : queries) {
    q = {static_cast<VertexId>(rng.index(tree.n())),
         static_cast<VertexId>(rng.index(tree.n()))};
  }
  std::size_t i = 0;
  for (auto _ : state) {
    const auto& [u, v] = queries[i++ & 1023];
    benchmark::DoNotOptimize(index.lca(u, v));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TreeIndexLcaQuery)->Range(1 << 10, 1 << 17);

void BM_ProjectionQuery(benchmark::State& state) {
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  const perf::TreeIndex index(tree);
  const auto [a, b] = tree.diameter_endpoints();
  Rng rng(11);
  std::size_t i = 0;
  std::vector<VertexId> queries(1024);
  for (auto& v : queries) v = static_cast<VertexId>(rng.index(tree.n()));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        index.project_onto_path(a, b, queries[i++ & 1023]));
  }
}
BENCHMARK(BM_ProjectionQuery)->Range(1 << 10, 1 << 17);

void BM_TreeAARoundBudget(benchmark::State& state) {
  // The full publicly-computable round budget (configs over both phases).
  const auto tree = benchmark_tree(static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::tree_aa_rounds(tree, 16, 5));
  }
}
BENCHMARK(BM_TreeAARoundBudget)->Range(1 << 10, 1 << 16);

}  // namespace

BENCHMARK_MAIN();

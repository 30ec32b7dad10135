#include "harness/runner.h"

#include <algorithm>

#include "common/check.h"
#include "sim/strategies.h"

namespace treeaa::harness {

// The runners below are thin adapters over the protocol registry: each one
// packs its typed arguments into a RunSpec, dispatches through
// run_protocol(), and unpacks the uniform RunOutcome into its historical
// result struct. Engine wiring and report population live in registry.cpp
// (TreeAA and BlockAA in core/api.cpp); round driving is obs::drive_rounds.

std::vector<double> RealRun::honest_outputs() const {
  std::vector<double> out;
  for (const auto& o : outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

double RealRun::output_range() const {
  const auto out = honest_outputs();
  TREEAA_CHECK(!out.empty());
  const auto [lo, hi] = std::minmax_element(out.begin(), out.end());
  return *hi - *lo;
}

namespace {

RealRun to_real_run(RunOutcome&& outcome) {
  RealRun run;
  run.outputs = std::move(outcome.real_outputs);
  run.histories = std::move(outcome.real_histories);
  run.corrupt = std::move(outcome.corrupt);
  run.rounds = outcome.rounds;
  run.traffic = outcome.traffic;
  return run;
}

}  // namespace

RealRun run_real_aa(const realaa::Config& config,
                    const std::vector<double>& inputs,
                    std::unique_ptr<sim::Adversary> adversary,
                    const obs::Hooks* hooks, std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kRealAA;
  spec.threads = threads;
  spec.n = config.n;
  spec.t = config.t;
  spec.real_inputs = inputs;
  spec.eps = config.eps;
  spec.known_range = config.known_range;
  spec.update = config.update;
  spec.mode = config.mode;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  return to_real_run(run_protocol(std::move(spec)));
}

RealRun run_iterated_real_aa(const baselines::IteratedRealConfig& config,
                             const std::vector<double>& inputs,
                             std::unique_ptr<sim::Adversary> adversary,
                             const obs::Hooks* hooks, std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kIteratedRealAA;
  spec.threads = threads;
  spec.n = config.n;
  spec.t = config.t;
  spec.real_inputs = inputs;
  spec.eps = config.eps;
  spec.known_range = config.known_range;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  return to_real_run(run_protocol(std::move(spec)));
}

std::vector<std::vector<VertexId>> PathsFinderRun::honest_paths() const {
  std::vector<std::vector<VertexId>> out;
  for (const auto& p : paths) {
    if (p.has_value()) out.push_back(*p);
  }
  return out;
}

PathsFinderRun run_paths_finder(const LabeledTree& tree, std::size_t n,
                                std::size_t t,
                                const std::vector<VertexId>& inputs,
                                std::unique_ptr<sim::Adversary> adversary,
                                core::PathsFinderOptions opts,
                                const obs::Hooks* hooks, std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kPathsFinder;
  spec.threads = threads;
  spec.n = n;
  spec.t = t;
  spec.tree = &tree;
  spec.vertex_inputs = inputs;
  spec.update = opts.update;
  spec.mode = opts.mode;
  spec.engine = opts.engine;
  spec.index_choice = opts.index_choice;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  auto outcome = run_protocol(std::move(spec));
  PathsFinderRun run;
  run.paths = std::move(outcome.paths);
  run.corrupt = std::move(outcome.corrupt);
  run.rounds = outcome.rounds;
  run.traffic = outcome.traffic;
  return run;
}

std::vector<VertexId> VertexRun::honest_outputs() const {
  std::vector<VertexId> out;
  for (const auto& o : outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

namespace {

VertexRun to_vertex_run(RunOutcome&& outcome) {
  VertexRun run;
  run.outputs = std::move(outcome.vertex_outputs);
  run.corrupt = std::move(outcome.corrupt);
  run.rounds = outcome.rounds;
  run.traffic = outcome.traffic;
  return run;
}

}  // namespace

VertexRun run_path_aa(const LabeledTree& path_tree, std::size_t n,
                      std::size_t t, const std::vector<VertexId>& inputs,
                      std::unique_ptr<sim::Adversary> adversary,
                      core::PathAAOptions opts, const obs::Hooks* hooks,
                      std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kPathAA;
  spec.threads = threads;
  spec.n = n;
  spec.t = t;
  spec.tree = &path_tree;
  spec.vertex_inputs = inputs;
  spec.update = opts.update;
  spec.mode = opts.mode;
  spec.engine = opts.engine;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  return to_vertex_run(run_protocol(std::move(spec)));
}

VertexRun run_iterated_tree_aa(const LabeledTree& tree, std::size_t n,
                               std::size_t t,
                               const std::vector<VertexId>& inputs,
                               std::unique_ptr<sim::Adversary> adversary,
                               const obs::Hooks* hooks, std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kIteratedTreeAA;
  spec.threads = threads;
  spec.n = n;
  spec.t = t;
  spec.tree = &tree;
  spec.vertex_inputs = inputs;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  return to_vertex_run(run_protocol(std::move(spec)));
}

VertexRun run_block_aa(const graphs::BlockIndex& index, std::size_t n,
                       std::size_t t, const std::vector<VertexId>& inputs,
                       std::unique_ptr<sim::Adversary> adversary,
                       graphs::BlockAAOptions opts, const obs::Hooks* hooks,
                       std::size_t threads) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kBlockAA;
  spec.threads = threads;
  spec.n = n;
  spec.t = t;
  spec.block_index = &index;
  spec.vertex_inputs = inputs;
  spec.update = opts.update;
  spec.mode = opts.mode;
  spec.engine = opts.engine;
  spec.adversary = std::move(adversary);
  spec.hooks = hooks;
  return to_vertex_run(run_protocol(std::move(spec)));
}

std::vector<VertexId> AsyncVertexRun::honest_outputs() const {
  std::vector<VertexId> out;
  for (const auto& o : outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

AsyncVertexRun run_async_tree_aa(const LabeledTree& tree, std::size_t n,
                                 std::size_t t,
                                 const std::vector<VertexId>& inputs,
                                 AsyncOptions opts,
                                 std::unique_ptr<async::AsyncAdversary> adversary,
                                 const obs::Hooks* hooks) {
  RunSpec spec;
  spec.protocol = ProtocolKind::kAsyncTreeAA;
  spec.n = n;
  spec.t = t;
  spec.tree = &tree;
  spec.vertex_inputs = inputs;
  spec.async_opts = std::move(opts);
  spec.async_adversary = std::move(adversary);
  spec.hooks = hooks;
  auto outcome = run_protocol(std::move(spec));
  AsyncVertexRun run;
  run.outputs = std::move(outcome.vertex_outputs);
  run.corrupt = std::move(outcome.corrupt);
  run.deliveries = outcome.deliveries;
  run.messages = outcome.messages;
  return run;
}

std::vector<VertexId> random_vertex_inputs(const LabeledTree& tree,
                                           std::size_t n, Rng& rng) {
  std::vector<VertexId> inputs(n);
  for (auto& v : inputs) v = static_cast<VertexId>(rng.index(tree.n()));
  return inputs;
}

std::vector<VertexId> spread_vertex_inputs(const LabeledTree& tree,
                                           std::size_t n) {
  const auto [a, b] = tree.diameter_endpoints();
  std::vector<VertexId> inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs[i] = (i % 2 == 0) ? a : b;
  return inputs;
}

std::vector<double> spread_real_inputs(std::size_t n, double lo, double hi) {
  std::vector<double> inputs(n);
  for (std::size_t i = 0; i < n; ++i) inputs[i] = (i % 2 == 0) ? lo : hi;
  return inputs;
}

std::vector<double> random_real_inputs(std::size_t n, double lo, double hi,
                                       Rng& rng) {
  std::vector<double> inputs(n);
  for (auto& v : inputs) v = lo + (hi - lo) * rng.unit();
  return inputs;
}

std::unique_ptr<sim::Adversary> make_extreme_input_puppets(
    const realaa::Config& config, const std::vector<PartyId>& victims,
    double lo, double hi) {
  std::vector<sim::PuppetAdversary::Puppet> puppets;
  for (std::size_t i = 0; i < victims.size(); ++i) {
    puppets.push_back(sim::PuppetAdversary::Puppet{
        victims[i],
        std::make_unique<realaa::RealAAProcess>(config, victims[i],
                                                i % 2 == 0 ? lo : hi),
        nullptr});
  }
  return std::make_unique<sim::PuppetAdversary>(std::move(puppets));
}

}  // namespace treeaa::harness

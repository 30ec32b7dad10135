// Experiment harness: one-call runners for every protocol in the library,
// shared by the test suite, the benches, and the examples.
//
// Each runner wires up an Engine, installs per-party processes and an
// optional adversary, runs the publicly known number of rounds, and returns
// the honest results plus traffic statistics.
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "async/engine.h"
#include "async/tree_aa.h"
#include "baselines/iterated_real_aa.h"
#include "baselines/iterated_tree_aa.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/path_aa.h"
#include "graphs/block_aa.h"
#include "harness/registry.h"
#include "obs/report.h"
#include "core/paths_finder.h"
#include "realaa/real_aa.h"
#include "sim/adversary.h"
#include "sim/stats.h"
#include "trees/euler.h"
#include "trees/labeled_tree.h"

namespace treeaa::harness {

// Every synchronous runner takes an optional trailing `hooks` pointer
// (obs::Hooks) and a `threads` count for the engine's intra-run worker
// lanes (1 = serial, 0 = hardware; results are byte-identical at any
// value). Rounds are driven by obs::drive_rounds (obs/probe.h): with a
// report sink attached the engine runs round by round and the report
// receives the protocol's per-round series (value diameters, detections,
// gradecast grade distributions where the protocol exposes them), traffic
// totals, and wall-clock timing; a tracer sink receives the full event
// stream. A null/inactive hooks keeps the plain path: one engine.run(), no
// tracer, no clock reads.

/// Result of a real-valued AA run (RealAA or the iterated baseline).
struct RealRun {
  /// Per-party output; disengaged for corrupt parties.
  std::vector<std::optional<double>> outputs;
  /// Per-party value history (input first); empty for corrupt parties.
  std::vector<std::vector<double>> histories;
  std::vector<PartyId> corrupt;
  Round rounds = 0;
  sim::TrafficStats traffic;

  [[nodiscard]] std::vector<double> honest_outputs() const;
  /// max - min over engaged outputs.
  [[nodiscard]] double output_range() const;
};

[[nodiscard]] RealRun run_real_aa(
    const realaa::Config& config, const std::vector<double>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, std::size_t threads = 1);

[[nodiscard]] RealRun run_iterated_real_aa(
    const baselines::IteratedRealConfig& config,
    const std::vector<double>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, std::size_t threads = 1);

/// Result of a PathsFinder run.
struct PathsFinderRun {
  std::vector<std::optional<std::vector<VertexId>>> paths;
  std::vector<PartyId> corrupt;
  Round rounds = 0;
  sim::TrafficStats traffic;

  [[nodiscard]] std::vector<std::vector<VertexId>> honest_paths() const;
};

[[nodiscard]] PathsFinderRun run_paths_finder(
    const LabeledTree& tree, std::size_t n, std::size_t t,
    const std::vector<VertexId>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    core::PathsFinderOptions opts = {}, const obs::Hooks* hooks = nullptr,
    std::size_t threads = 1);

/// Result of a vertex-valued AA run (the warm-up path protocol or the
/// iterated tree baseline).
struct VertexRun {
  std::vector<std::optional<VertexId>> outputs;
  std::vector<PartyId> corrupt;
  Round rounds = 0;
  sim::TrafficStats traffic;

  [[nodiscard]] std::vector<VertexId> honest_outputs() const;
};

[[nodiscard]] VertexRun run_path_aa(
    const LabeledTree& path_tree, std::size_t n, std::size_t t,
    const std::vector<VertexId>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    core::PathAAOptions opts = {}, const obs::Hooks* hooks = nullptr,
    std::size_t threads = 1);

[[nodiscard]] VertexRun run_iterated_tree_aa(
    const LabeledTree& tree, std::size_t n, std::size_t t,
    const std::vector<VertexId>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, std::size_t threads = 1);

/// BlockAA on the block graph behind `index`; inputs and outputs are graph
/// vertices. Same engine knobs as TreeAA (graphs::BlockAAOptions is
/// core::TreeAAOptions).
[[nodiscard]] VertexRun run_block_aa(
    const graphs::BlockIndex& index, std::size_t n, std::size_t t,
    const std::vector<VertexId>& inputs,
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    graphs::BlockAAOptions opts = {}, const obs::Hooks* hooks = nullptr,
    std::size_t threads = 1);

/// Result of an asynchronous tree-AA run (the NR baseline in its native
/// model): no rounds, so complexity is reported in deliveries/messages.
struct AsyncVertexRun {
  std::vector<std::optional<VertexId>> outputs;
  std::vector<PartyId> corrupt;
  std::uint64_t deliveries = 0;
  std::uint64_t messages = 0;

  [[nodiscard]] std::vector<VertexId> honest_outputs() const;
};

/// The asynchronous runner has no rounds, so a report sink receives totals
/// and outcome facts (deliveries, messages) but no per-round series. The
/// model's scheduling knobs (corrupt set, scheduler, seed) travel together
/// in AsyncOptions.
[[nodiscard]] AsyncVertexRun run_async_tree_aa(
    const LabeledTree& tree, std::size_t n, std::size_t t,
    const std::vector<VertexId>& inputs, AsyncOptions opts = {},
    std::unique_ptr<async::AsyncAdversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr);

// --- Input generators -------------------------------------------------------

/// n vertices drawn uniformly at random.
[[nodiscard]] std::vector<VertexId> random_vertex_inputs(
    const LabeledTree& tree, std::size_t n, Rng& rng);

/// n vertices alternating between the two endpoints of a diametral path —
/// the worst-case spread for round-count experiments.
[[nodiscard]] std::vector<VertexId> spread_vertex_inputs(
    const LabeledTree& tree, std::size_t n);

/// n reals alternating between lo and hi (worst-case spread on R).
[[nodiscard]] std::vector<double> spread_real_inputs(std::size_t n, double lo,
                                                     double hi);

/// n reals uniform in [lo, hi].
[[nodiscard]] std::vector<double> random_real_inputs(std::size_t n, double lo,
                                                     double hi, Rng& rng);

/// A PuppetAdversary whose corrupt parties run RealAA honestly but with
/// inputs alternating between `lo` and `hi` — the classic validity attack
/// (Byzantine parties with out-of-range inputs).
[[nodiscard]] std::unique_ptr<sim::Adversary> make_extreme_input_puppets(
    const realaa::Config& config, const std::vector<PartyId>& victims,
    double lo, double hi);

}  // namespace treeaa::harness

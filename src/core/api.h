// High-level convenience API: run a full TreeAA execution on the simulator
// in one call, and check the AA guarantees of the honest outputs.
//
// This is the entry point most users (and all examples) want; the
// process-level classes underneath remain available for embedding protocols
// into custom simulations.
#pragma once

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/tree_aa.h"
#include "obs/report.h"
#include "perf/tree_index.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/stats.h"
#include "trees/labeled_tree.h"

namespace treeaa::core {

struct RunResult {
  /// Per-party outputs; disengaged for corrupt parties (their "output" is
  /// meaningless) — honest parties always produce one (Termination).
  std::vector<std::optional<VertexId>> outputs;
  /// Parties the adversary corrupted during the run.
  std::vector<PartyId> corrupt;
  /// Synchronous rounds consumed.
  Round rounds = 0;
  sim::TrafficStats traffic;

  // --- Execution telemetry (aggregated over honest parties) ---------------
  /// Honest parties ended PathsFinder with more than one distinct path
  /// (always a one-edge difference — Lemma 4).
  bool path_split = false;
  /// Honest parties whose Figure-5 clamp fired (closestInt(j) > k).
  std::size_t clamp_count = 0;
  /// Max number of Byzantine parties any honest party proved in phase 2.
  std::size_t max_detected_faulty = 0;

  /// Outputs of honest parties only.
  [[nodiscard]] std::vector<VertexId> honest_outputs() const;
};

/// Runs TreeAA with `inputs.size()` parties holding the given input
/// vertices, tolerating up to `t` corruptions, against `adversary`
/// (nullptr = no adversary). Throws std::invalid_argument unless n > 3t and
/// every input is a vertex of `tree`.
///
/// `hooks` (optional) attaches observability sinks: with a report sink the
/// run is driven round by round and the report receives the per-round
/// convergence series (honest hull size and diameter, detections, traffic)
/// plus totals and wall-clock timing; a tracer sink receives the full event
/// stream. Null (the default) is the plain fast path — one engine.run(),
/// zero probe overhead.
///
/// `engine_opts` configures the simulator itself (worker threads); every
/// configuration produces byte-identical results and reports.
[[nodiscard]] RunResult run_tree_aa(
    const LabeledTree& tree, const std::vector<VertexId>& inputs,
    std::size_t t, TreeAAOptions opts = {},
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, sim::EngineOptions engine_opts = {});

/// run_tree_aa over a prebuilt index of the input tree, for callers that
/// also judge the run through it (see check_agreement below).
[[nodiscard]] RunResult run_tree_aa(
    const perf::TreeIndex& index, const std::vector<VertexId>& inputs,
    std::size_t t, TreeAAOptions opts = {},
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, sim::EngineOptions engine_opts = {});

namespace detail {

/// Merges the live TreeAA parties' state into the sample of the round that
/// just ended.
using TreeAASnapshot = std::function<void(
    const sim::Engine&, const std::vector<TreeAAProcess*>&, obs::RoundSample&)>;

/// The TreeAA run behind run_tree_aa and graphs::run_block_aa: one
/// TreeAAProcess per party over `index` (inputs are vertices of
/// index.tree()), tree_aa_rounds rounds through obs::drive_rounds with the
/// "phase1 · round R" / "phase2 · iter K · step" driver-span names, and the
/// outcome block. Outputs are the raw TreeAA outputs. With a report sink it
/// adds the "engine" and "phase1_rounds" params (callers add theirs around
/// them), the path_length histogram, the totals and the path_split /
/// clamp_count / max_detected_faulty outcomes. The caller checks n > 3t and
/// the inputs.
[[nodiscard]] RunResult run_tree_aa_over(
    const perf::TreeIndex& index, const std::vector<VertexId>& inputs,
    std::size_t t, TreeAAOptions opts,
    std::unique_ptr<sim::Adversary> adversary, const obs::Hooks* hooks,
    sim::EngineOptions engine_opts, const TreeAASnapshot& snapshot);

}  // namespace detail

/// The verdict of check_agreement: both AA conditions on trees
/// (Definition 2), evaluated against the honest inputs/outputs.
struct AgreementCheck {
  bool valid = false;          // all outputs in <honest inputs>
  bool one_agreement = false;  // pairwise output distance <= 1
  std::uint32_t max_pairwise_distance = 0;

  [[nodiscard]] bool ok() const { return valid && one_agreement; }
};

/// Checks Validity and 1-Agreement of `honest_outputs` against
/// `honest_inputs` on `tree`. Requires both sets non-empty. Builds a
/// transient TreeIndex; callers that already hold one should use the
/// overload below.
[[nodiscard]] AgreementCheck check_agreement(
    const LabeledTree& tree, const std::vector<VertexId>& honest_inputs,
    const std::vector<VertexId>& honest_outputs);

/// Same check through a prebuilt TreeIndex: hull membership and pairwise
/// distances are O(1) queries instead of per-pair tree walks.
[[nodiscard]] AgreementCheck check_agreement(
    const perf::TreeIndex& index, const std::vector<VertexId>& honest_inputs,
    const std::vector<VertexId>& honest_outputs);

}  // namespace treeaa::core

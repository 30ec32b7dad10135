// Hunt scenarios: the fixed half of an adversary-search problem.
//
// A search compares hundreds of adversaries against one another, so
// everything except the adversary must be pinned: the protocol, (n, t), the
// input-space tree (for vertex protocols), eps/known_range (for real ones)
// and the actual party inputs. materialize() resolves a Scenario into that
// pinned instance once — the tree is grown exactly as `treeaa_cli gen
// <family> <n> [seed]` grows it and inputs keep their label strings, so a
// corpus line replays through the CLI with `gen` + `--inputs` alone.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "core/real_engine.h"
#include "harness/registry.h"
#include "realaa/real_aa.h"
#include "trees/labeled_tree.h"

namespace treeaa::hunt {

/// Recipe for the scenario tree, mirroring `treeaa_cli gen`: the tree is
/// make_family_tree(family, size, Rng(seed)).
struct TreeSpec {
  std::string family = "random";
  std::size_t size = 16;
  std::uint64_t seed = harness::kDefaultSeed;
};

/// The declarative scenario, as read from a hunt spec file. Vertex
/// protocols read `tree`; real protocols read eps/known_range.
struct Scenario {
  std::string name = "hunt";
  harness::ProtocolKind protocol = harness::ProtocolKind::kTreeAA;
  std::size_t n = 0;
  std::size_t t = 0;
  std::optional<TreeSpec> tree;
  double eps = 1.0;
  double known_range = 0.0;
  /// false = spread inputs (deterministic diameter-realising assignment),
  /// true = uniform random inputs drawn from Rng(input_seed).
  bool random_inputs = false;
  std::uint64_t input_seed = harness::kDefaultSeed;
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  core::RealEngineKind engine = core::RealEngineKind::kGradecastBdh;
};

/// The scenario with every random choice resolved: candidate evaluation is
/// a pure function of (MaterializedScenario, AdversarySpec).
struct MaterializedScenario {
  Scenario scenario;
  std::optional<LabeledTree> tree;
  std::vector<VertexId> vertex_inputs;
  /// Label strings of vertex_inputs, for the corpus / CLI replay.
  std::vector<std::string> input_labels;
  std::vector<double> real_inputs;
  /// The RealAA instance a split attack targets: harness::split_target of
  /// the pinned instance (default-constructed when the protocol has none).
  realaa::Config split_config;
  /// split_config.iterations() — the split-schedule length bound (0 without
  /// a split target).
  std::size_t iterations = 0;
  /// harness::round_budget of the pinned instance (rounds one run executes).
  Round round_budget = 0;
  /// Claimed initial diameter (tree diameter / known_range) and agreement
  /// target (1 / eps) — the (D, eps) of the round-count claim.
  double d0 = 0.0;
  double target_eps = 1.0;
};

/// Protocols the hunt can search (sync, fixed round budget, per-round
/// diameter probes): tree_aa, iterated_tree_aa, real_aa, iterated_real_aa.
[[nodiscard]] bool is_hunt_protocol(harness::ProtocolKind p);

/// Resolves the scenario; throws std::invalid_argument on an inconsistent
/// one (unknown family, n <= 3t, missing tree, bad real params).
[[nodiscard]] MaterializedScenario materialize(const Scenario& s);

/// The pinned instance as a registry spec, one engine lane, no adversary
/// and no hooks: what materialize() validates and budgets, and what every
/// candidate evaluation runs. References `m`'s tree, so `m` must outlive it.
[[nodiscard]] harness::RunSpec run_spec(const MaterializedScenario& m);

}  // namespace treeaa::hunt

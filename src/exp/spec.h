// Declarative scenario specs for the sweep engine.
//
// A SweepSpec describes a whole experiment campaign as data: which
// protocols to run, on which trees (or which real-valued ranges), over
// which (n, t) grid, against which adversaries, at which ε, with how many
// repeats. `expand()` turns the spec into a flat, deterministically ordered
// work list of Cells — one Cell per fully instantiated grid point — which
// run_sweep (sweep.h) executes in parallel and the report layer (report.h)
// folds back into a single `treeaa.sweep_report/1` document.
//
// Axis order inside a scenario is fixed (outer → inner):
//
//   protocols → engines → families → sizes → ranges → eps → updates
//            → n → t → adversaries → repeats
//
// and scenarios expand in spec order, so a cell's index — and therefore its
// forked RNG stream and its position in the report — is a pure function of
// the spec. Axes that do not apply to a protocol (e.g. `engine` for the
// iterated baseline, `range` for tree protocols) collapse to a single
// default value for that protocol's cells instead of multiplying them.
//
// The JSON format is documented in docs/SWEEPS.md; example specs live under
// examples/sweeps/.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/tree_aa.h"
#include "harness/registry.h"
#include "realaa/real_aa.h"

namespace treeaa::exp {

// The sweep engine's protocol and adversary vocabulary IS the harness
// registry's: the aliases below keep the historical exp:: spellings while
// the names, predicates, and dispatch all live in one table
// (harness/registry.h). The parser accepts only the sweep-grid subset
// (is_sweep_protocol); the enumerator values of that subset are unchanged,
// so cell indices, RNG forks, and reports are byte-identical.
using Protocol = harness::ProtocolKind;
using AdversaryKind = harness::AdversaryKind;
using harness::adversary_name;
using harness::is_graph_protocol;
using harness::is_vertex_protocol;
using harness::protocol_name;

enum class InputKind { kSpread, kRandom };

[[nodiscard]] const char* input_kind_name(InputKind k);

/// Tree axis of a vertex-protocol scenario. `families` uses the generator
/// names of trees/generators.h plus "chainy" (make_random_chainy_tree with
/// `chain_bias`). With `tree_seed` set, the tree for a given (seed, size) is
/// shared by every cell of the scenario — across protocols, adversaries and
/// repeats — which is what head-to-head comparisons want; without it each
/// cell grows its own tree from its forked RNG.
struct TreeSpec {
  std::vector<std::string> families;
  std::vector<std::size_t> sizes;
  std::optional<std::uint64_t> tree_seed;
  double chain_bias = 0.9;
};

/// Graph axis of a graph-protocol scenario (block_aa). `families` uses the
/// generator names of graphs/generators.h; `graph_seed` plays the role
/// TreeSpec::tree_seed plays for trees — with it set, the graph for a given
/// (seed, size) is shared across the scenario's cells.
struct GraphSpec {
  std::vector<std::string> families;
  std::vector<std::size_t> sizes;
  std::optional<std::uint64_t> graph_seed;
};

struct Scenario {
  std::vector<Protocol> protocols;  // all-vertex, all-real, or all-graph
  std::optional<TreeSpec> tree;     // required iff vertex protocols
  std::optional<GraphSpec> graph;   // required iff graph protocols
  std::vector<double> ranges;       // known range D; required iff real
  std::vector<double> eps{1.0};     // real protocols only
  std::vector<realaa::UpdateRule> updates{realaa::UpdateRule::kTrimmedMean};
  std::vector<core::RealEngineKind> engines{
      core::RealEngineKind::kGradecastBdh};  // tree_aa only
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  std::vector<std::size_t> n_values;
  /// Empty = "max": t = (n - 1) / 3 for each n.
  std::vector<std::size_t> t_values;
  std::vector<AdversaryKind> adversaries{AdversaryKind::kNone};
  InputKind inputs = InputKind::kSpread;
};

struct SweepSpec {
  std::string name;
  std::uint64_t seed = 1;
  std::size_t repeats = 1;
  std::vector<Scenario> scenarios;
};

/// One fully instantiated grid point of the flat work list.
struct Cell {
  std::size_t index = 0;     // position in the flat list (RNG fork tag)
  std::size_t scenario = 0;  // index into SweepSpec::scenarios
  Protocol protocol = Protocol::kTreeAA;
  // Vertex- and graph-protocol axes; `family` stays empty for real
  // protocols. Graph cells reuse these fields (family = graph family,
  // tree_size = graph size, tree_seed = GraphSpec::graph_seed) so cell
  // indexing and RNG forks stay uniform across the protocol families.
  std::string family;
  std::size_t tree_size = 0;
  std::optional<std::uint64_t> tree_seed;
  double chain_bias = 0.9;
  core::RealEngineKind engine = core::RealEngineKind::kGradecastBdh;
  // Real-protocol axes; zero/defaults for vertex protocols.
  double known_range = 0.0;
  double eps = 1.0;
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  std::size_t n = 0;
  std::size_t t = 0;
  AdversaryKind adversary = AdversaryKind::kNone;
  InputKind inputs = InputKind::kSpread;
  std::size_t repeat = 0;
};

/// Parses and validates a sweep spec document. Throws std::invalid_argument
/// with a human-readable message on syntax errors, unknown names, or
/// constraint violations (n <= 3t, adversary/protocol mismatches, ...).
[[nodiscard]] SweepSpec spec_from_json(std::string_view text);

/// Expands the spec into the flat work list in the documented axis order.
/// Throws std::invalid_argument when a grid combination is invalid or the
/// grid exceeds 100000 cells.
[[nodiscard]] std::vector<Cell> expand(const SweepSpec& spec);

}  // namespace treeaa::exp

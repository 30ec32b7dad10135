#include "hunt/scenario.h"

#include <stdexcept>

#include "common/rng.h"
#include "harness/runner.h"
#include "trees/generators.h"

namespace treeaa::hunt {

namespace {

using harness::ProtocolKind;

LabeledTree build_tree(const TreeSpec& spec) {
  // Exactly `treeaa_cli gen <family> <n> [seed]`: one fresh Rng(seed), the
  // named family table, nothing else — the corpus replay depends on it.
  Rng rng(spec.seed);
  for (const TreeFamily f : all_tree_families()) {
    if (spec.family == tree_family_name(f)) {
      return make_family_tree(f, spec.size, rng);
    }
  }
  throw std::invalid_argument("unknown tree family '" + spec.family + "'");
}

}  // namespace

bool is_hunt_protocol(harness::ProtocolKind p) {
  switch (p) {
    case ProtocolKind::kTreeAA:
    case ProtocolKind::kIteratedTreeAA:
    case ProtocolKind::kRealAA:
    case ProtocolKind::kIteratedRealAA:
      return true;
    default:
      return false;
  }
}

harness::RunSpec run_spec(const MaterializedScenario& m) {
  const Scenario& s = m.scenario;
  harness::RunSpec spec;
  spec.protocol = s.protocol;
  spec.n = s.n;
  spec.t = s.t;
  spec.threads = 1;  // parallelism is across candidates, never inside a run
  spec.tree = m.tree.has_value() ? &*m.tree : nullptr;
  spec.vertex_inputs = m.vertex_inputs;
  spec.real_inputs = m.real_inputs;
  spec.eps = s.eps;
  spec.known_range = s.known_range;
  spec.update = s.update;
  spec.mode = s.mode;
  spec.engine = s.engine;
  return spec;
}

MaterializedScenario materialize(const Scenario& s) {
  if (!is_hunt_protocol(s.protocol)) {
    throw std::invalid_argument(
        std::string("protocol '") + harness::protocol_name(s.protocol) +
        "' is not huntable (the search needs a synchronous round budget "
        "and per-round diameter probes)");
  }
  if (const auto issue = harness::validate_axes(s.protocol, s.n, s.t);
      issue.has_value()) {
    throw std::invalid_argument(issue->detail);
  }

  MaterializedScenario m;
  m.scenario = s;

  if (harness::is_vertex_protocol(s.protocol)) {
    if (!s.tree.has_value()) {
      throw std::invalid_argument("vertex protocols need a tree spec");
    }
    m.tree = build_tree(*s.tree);
    if (s.random_inputs) {
      Rng input_rng(s.input_seed);
      m.vertex_inputs = harness::random_vertex_inputs(*m.tree, s.n, input_rng);
    } else {
      m.vertex_inputs = harness::spread_vertex_inputs(*m.tree, s.n);
    }
    for (const VertexId v : m.vertex_inputs) {
      m.input_labels.push_back(m.tree->label(v));
    }
    m.d0 = static_cast<double>(m.tree->diameter());
    m.target_eps = 1.0;
  } else {
    if (s.random_inputs) {
      Rng input_rng(s.input_seed);
      m.real_inputs =
          harness::random_real_inputs(s.n, 0.0, s.known_range, input_rng);
    } else {
      m.real_inputs = harness::spread_real_inputs(s.n, 0.0, s.known_range);
    }
    m.d0 = s.known_range;
    m.target_eps = s.eps;
  }

  // One pass through the shared precondition checker so a bad scenario
  // fails here, with the registry's wording, instead of mid-search; then
  // the registry's round budget and split target for the pinned instance.
  const harness::RunSpec probe = run_spec(m);
  const auto issues = harness::validate(probe);
  if (!issues.empty()) {
    throw std::invalid_argument(issues.front().detail);
  }
  m.round_budget = static_cast<Round>(harness::round_budget(probe));
  if (const auto target = harness::split_target(probe)) {
    m.split_config = *target;
    m.iterations = target->iterations();
  }
  return m;
}

}  // namespace treeaa::hunt

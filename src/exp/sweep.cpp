#include "exp/sweep.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <stdexcept>
#include <utility>

#include "bounds/fekete.h"
#include "common/rng.h"
#include "graphs/block_index.h"
#include "graphs/generators.h"
#include "harness/adversary_spec.h"
#include "harness/runner.h"
#include "obs/probe.h"
#include "perf/parallel.h"
#include "perf/tree_index.h"
#include "sim/engine.h"
#include "sim/strategies.h"
#include "sim/trace.h"
#include "trees/generators.h"

namespace treeaa::exp {

namespace {

// Fixed fork tags for the cell's sub-streams. The set of forks taken is a
// pure function of the cell's axes, so every stream below depends only on
// (spec.seed, cell.index) — never on scheduling.
constexpr std::uint64_t kTreeTag = 1;
constexpr std::uint64_t kInputTag = 2;
constexpr std::uint64_t kAdversaryTag = 3;

LabeledTree build_tree(const Cell& cell, Rng& cell_rng) {
  // With a scenario tree_seed the tree is a function of (tree_seed, size)
  // alone — shared by every cell of the scenario regardless of protocol,
  // adversary or repeat — which is what head-to-head comparisons need.
  Rng tree_rng = cell.tree_seed.has_value()
                     ? Rng(*cell.tree_seed).fork(cell.tree_size)
                     : cell_rng.fork(kTreeTag);
  if (cell.family == "chainy") {
    return make_random_chainy_tree(cell.tree_size, tree_rng, cell.chain_bias);
  }
  for (const TreeFamily f : all_tree_families()) {
    if (cell.family == tree_family_name(f)) {
      return make_family_tree(f, cell.tree_size, tree_rng);
    }
  }
  throw std::invalid_argument("unknown tree family '" + cell.family + "'");
}

graphs::Graph build_graph(const Cell& cell, Rng& cell_rng) {
  // Same sharing rule as build_tree: with a scenario graph_seed (stored in
  // cell.tree_seed) the graph depends on (graph_seed, size) alone.
  Rng graph_rng = cell.tree_seed.has_value()
                      ? Rng(*cell.tree_seed).fork(cell.tree_size)
                      : cell_rng.fork(kTreeTag);
  for (const graphs::GraphFamily f : graphs::all_graph_families()) {
    if (cell.family == graphs::graph_family_name(f)) {
      return graphs::make_family_graph(f, cell.tree_size, graph_rng);
    }
  }
  throw std::invalid_argument("unknown graph family '" + cell.family + "'");
}

std::vector<PartyId> last_parties(std::size_t n, std::size_t k) {
  std::vector<PartyId> out;
  for (std::size_t i = 0; i < k; ++i) {
    out.push_back(static_cast<PartyId>(n - 1 - i));
  }
  return out;
}

/// The cell's adversary, with its randomness drawn in the exact historical
/// order: victims first, then (fuzz only) the payload seed. The split
/// attacks aim at the registry's split target and corrupt the last t
/// parties, the lower-bound argument's static corruption set.
std::unique_ptr<sim::Adversary> make_cell_adversary(
    const Cell& cell, const harness::RunSpec& rs, Rng& adv_rng) {
  if (const auto issue = harness::validate_axes(cell.protocol, cell.n, cell.t,
                                                cell.adversary)) {
    throw std::invalid_argument(issue->detail);
  }
  harness::AdversarySpec spec;
  spec.kind = cell.adversary;
  if (spec.kind == AdversaryKind::kSilent ||
      spec.kind == AdversaryKind::kFuzz) {
    spec.victims = sim::random_parties(cell.n, cell.t, adv_rng);
  }
  if (spec.kind == AdversaryKind::kFuzz) spec.fuzz_seed = adv_rng.next();
  if (spec.kind == AdversaryKind::kSplit ||
      spec.kind == AdversaryKind::kSplit1) {
    spec.split_config = harness::split_target(rs).value();
    spec.victims = last_parties(cell.n, cell.t);
  }
  return harness::make_adversary(spec);
}

/// One cell: the input space and the inputs are the only per-family part;
/// the run, its round budget and its verdict all come from the registry.
void run_cell_body(const Cell& cell, CellResult& result, Rng& cell_rng,
                   const obs::Hooks* hooks, std::size_t run_threads) {
  harness::RunSpec rs;
  rs.protocol = cell.protocol;
  rs.n = cell.n;
  rs.t = cell.t;
  rs.threads = run_threads;
  rs.eps = cell.eps;
  rs.known_range = cell.known_range;
  rs.update = cell.update;
  rs.mode = cell.mode;
  rs.engine = cell.engine;
  rs.hooks = hooks;

  std::optional<LabeledTree> tree;
  std::optional<perf::TreeIndex> tree_index;
  std::optional<graphs::BlockIndex> index;
  // Fekete's bound for the cell's input space; on R it is scale-invariant:
  // spread D with target eps is the instance spread D/eps with target 1.
  double d0 = cell.known_range / cell.eps;
  if (is_graph_protocol(cell.protocol)) {
    index.emplace(build_graph(cell, cell_rng));
    rs.block_index = &*index;
    result.tree_n = index->n();
    result.tree_diameter = index->diameter();
    result.graph_blocks = index->decomposition().blocks().size();
    d0 = static_cast<double>(index->diameter());
  } else if (is_vertex_protocol(cell.protocol)) {
    tree.emplace(build_tree(cell, cell_rng));
    rs.tree = &*tree;
    rs.tree_index = &tree_index.emplace(*tree);
    result.tree_n = tree->n();
    result.tree_diameter = tree->diameter();
    d0 = static_cast<double>(tree->diameter());
  }
  result.lower_bound = bounds::lower_bound_rounds(d0, cell.n, cell.t);

  Rng input_rng = cell_rng.fork(kInputTag);
  const bool spread = cell.inputs == InputKind::kSpread;
  if (index.has_value()) {
    rs.vertex_inputs =
        spread ? harness::spread_vertex_inputs(*index, cell.n)
               : harness::random_vertex_inputs(*index, cell.n, input_rng);
  } else if (tree.has_value()) {
    rs.vertex_inputs =
        spread ? harness::spread_vertex_inputs(*tree, cell.n)
               : harness::random_vertex_inputs(*tree, cell.n, input_rng);
  } else {
    rs.real_inputs =
        spread ? harness::spread_real_inputs(cell.n, 0.0, cell.known_range)
               : harness::random_real_inputs(cell.n, 0.0, cell.known_range,
                                             input_rng);
  }

  Rng adv_rng = cell_rng.fork(kAdversaryTag);
  rs.adversary = make_cell_adversary(cell, rs, adv_rng);

  result.round_budget = harness::round_budget(rs);
  const harness::RunOutcome run = harness::run_protocol(rs);
  result.rounds = run.rounds;
  result.corrupt = run.corrupt.size();
  result.honest_messages = run.traffic.honest_messages();
  result.honest_bytes = run.traffic.honest_bytes();
  result.adversary_messages = run.traffic.adversary_messages();
  result.adversary_bytes = run.traffic.adversary_bytes();

  const harness::Verdict verdict = harness::check_outcome(rs, run);
  result.validity = verdict.valid;
  result.agreement = verdict.agreement;
  result.spread = verdict.spread;
}

}  // namespace

CellResult run_cell(const SweepSpec& spec, const Cell& cell,
                    bool collect_report, std::size_t run_threads,
                    const std::string& trace_format) {
  CellResult result;
  result.cell = cell;

  obs::Hooks hooks;
  if (collect_report) hooks.report = &result.report;
  sim::RecordingTracer text_tracer;
  obs::JsonlTracer jsonl_tracer;
  if (!trace_format.empty()) {
    hooks.tracer = trace_format == "jsonl"
                       ? static_cast<sim::Tracer*>(&jsonl_tracer)
                       : static_cast<sim::Tracer*>(&text_tracer);
  }
  const obs::Hooks* hooks_ptr = hooks.active() ? &hooks : nullptr;

  try {
    Rng parent(spec.seed);
    Rng cell_rng = parent.fork(cell.index);
    run_cell_body(cell, result, cell_rng, hooks_ptr, run_threads);
    result.ok = true;
  } catch (const std::exception& e) {
    result.ok = false;
    result.error = e.what();
  }
  if (!trace_format.empty()) {
    result.trace = trace_format == "jsonl" ? jsonl_tracer.text()
                                           : text_tracer.text();
  }
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, const std::vector<Cell>& cells,
                      const SweepOptions& opts) {
  SweepResult result;
  result.cells.resize(cells.size());

  // Nested thread budget: opts.threads is the sweep's total. Each engine
  // takes the lanes the engine's own rule grants its cell's n, so the cells
  // fan out on total / (the widest cell's lanes) lanes (at least one) and
  // cells x lanes stays at most the requested total. The split never shows
  // up in the report — every combination is byte-identical.
  const std::size_t run_threads =
      perf::WorkerPool::resolve_lanes(opts.run_threads);
  std::size_t widest = 1;
  for (const Cell& cell : cells) {
    widest = std::max(widest, sim::Engine::lanes_for(cell.n, run_threads));
  }
  const std::size_t cell_lanes = std::max<std::size_t>(
      1, perf::WorkerPool::resolve_lanes(opts.threads) / widest);

  const auto start = std::chrono::steady_clock::now();
  perf::WorkerPool::for_each(cell_lanes, cells.size(), [&](std::size_t i) {
    result.cells[i] = run_cell(spec, cells[i], opts.collect_reports,
                               run_threads, opts.trace_format);
  });
  const auto end = std::chrono::steady_clock::now();

  result.timings.wall_ms =
      std::chrono::duration<double, std::milli>(end - start).count();
  result.timings.threads =
      std::max<std::size_t>(1, std::min(cell_lanes, cells.size()));
  result.timings.cells = cells.size();
  return result;
}

SweepResult run_sweep(const SweepSpec& spec, const SweepOptions& opts) {
  return run_sweep(spec, expand(spec), opts);
}

}  // namespace treeaa::exp

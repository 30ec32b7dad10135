#include "core/api.h"

#include <algorithm>
#include <optional>

#include "common/check.h"
#include "obs/probe.h"
#include "sim/engine.h"
#include "trees/paths.h"

namespace treeaa::core {

std::vector<VertexId> RunResult::honest_outputs() const {
  std::vector<VertexId> out;
  for (const auto& o : outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

namespace {

/// Merges the honest parties' current TreeAA state into the sample of the
/// round that just ended: hull size and tree diameter of the estimate set,
/// plus the max proven-Byzantine count. Distances go through the run's
/// TreeIndex (O(1) per pair).
void snapshot_tree_aa(const perf::TreeIndex& index, const sim::Engine& engine,
                      const std::vector<TreeAAProcess*>& procs,
                      obs::RoundSample& s) {
  std::vector<VertexId> estimates;
  estimates.reserve(procs.size());
  std::uint64_t detected = 0;
  for (PartyId p = 0; p < procs.size(); ++p) {
    if (engine.is_corrupt(p)) continue;
    estimates.push_back(procs[p]->current_estimate());
    detected = std::max(detected, static_cast<std::uint64_t>(
                                      procs[p]->current_detected_faulty()));
  }
  if (estimates.empty()) return;
  std::uint32_t diameter = 0;
  for (const VertexId u : estimates) {
    for (const VertexId v : estimates) {
      diameter = std::max(diameter, index.distance(u, v));
    }
  }
  s.value_diameter = static_cast<double>(diameter);
  s.hull_size = convex_hull(index.tree(), estimates).size();
  s.detected_faulty = detected;
}

}  // namespace

RunResult detail::run_tree_aa_over(const perf::TreeIndex& index,
                                   const std::vector<VertexId>& inputs,
                                   std::size_t t, TreeAAOptions opts,
                                   std::unique_ptr<sim::Adversary> adversary,
                                   const obs::Hooks* hooks,
                                   sim::EngineOptions engine_opts,
                                   const TreeAASnapshot& snapshot) {
  const std::size_t n = inputs.size();
  sim::Engine engine(n, std::max<std::size_t>(t, 1), engine_opts);
  std::vector<TreeAAProcess*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc =
        std::make_unique<TreeAAProcess>(index, n, t, p, inputs[p], opts);
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  if (adversary != nullptr) engine.set_adversary(std::move(adversary));

  const std::size_t phase1_rounds =
      procs.empty() ? 0 : procs[0]->telemetry().phase1_rounds;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->add_param("engine", real_engine_name(opts.engine));
    report->add_param("phase1_rounds",
                      static_cast<std::uint64_t>(phase1_rounds));
  }
  // TreeAA = phase-1 flooding, then PathsFinder's gradecast iterations
  // (three sub-rounds each: leader/echo/support).
  obs::drive_rounds(
      engine, tree_aa_rounds(index.tree(), n, t, opts), hooks,
      [&](obs::RoundSample& s) { snapshot(engine, procs, s); },
      [&](Round r) -> std::string {
        if (r <= phase1_rounds) {
          return "phase1 \xc2\xb7 round " + std::to_string(r);
        }
        const Round r2 = r - static_cast<Round>(phase1_rounds);
        return "phase2 \xc2\xb7 " + obs::gradecast_round_name(r2);
      });

  RunResult result;
  result.outputs.resize(n);
  std::optional<VertexId> first_tip;
  for (PartyId p = 0; p < n; ++p) {
    if (engine.is_corrupt(p)) continue;
    result.outputs[p] = procs[p]->output();
    TREEAA_CHECK_MSG(result.outputs[p].has_value(),
                     "honest party " << p << " failed to terminate");
    const auto telemetry = procs[p]->telemetry();
    if (telemetry.clamped) ++result.clamp_count;
    result.max_detected_faulty =
        std::max(result.max_detected_faulty, telemetry.detected_faulty);
    if (procs[p]->path().has_value()) {
      const VertexId tip = procs[p]->path()->back();
      if (first_tip.has_value() && *first_tip != tip) {
        result.path_split = true;
      }
      first_tip = first_tip.value_or(tip);
      if (report != nullptr) {
        report->metrics.histogram("path_length")
            .observe(static_cast<double>(procs[p]->path()->size()));
      }
    }
  }
  result.corrupt = engine.corrupt();
  result.rounds = engine.rounds_elapsed();
  result.traffic = engine.stats();
  if (report != nullptr) {
    report->set_totals(n, t, result.rounds, result.corrupt, result.traffic);
    report->metrics.counter("clamp_count").inc(result.clamp_count);
    report->add_outcome("path_split", result.path_split);
    report->add_outcome("clamp_count",
                        static_cast<std::uint64_t>(result.clamp_count));
    report->add_outcome(
        "max_detected_faulty",
        static_cast<std::uint64_t>(result.max_detected_faulty));
  }
  return result;
}

RunResult run_tree_aa(const LabeledTree& tree,
                      const std::vector<VertexId>& inputs, std::size_t t,
                      TreeAAOptions opts,
                      std::unique_ptr<sim::Adversary> adversary,
                      const obs::Hooks* hooks,
                      sim::EngineOptions engine_opts) {
  return run_tree_aa(perf::TreeIndex(tree), inputs, t, opts,
                     std::move(adversary), hooks, engine_opts);
}

RunResult run_tree_aa(const perf::TreeIndex& index,
                      const std::vector<VertexId>& inputs, std::size_t t,
                      TreeAAOptions opts,
                      std::unique_ptr<sim::Adversary> adversary,
                      const obs::Hooks* hooks,
                      sim::EngineOptions engine_opts) {
  const LabeledTree& tree = index.tree();
  const std::size_t n = inputs.size();
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t),
                     "TreeAA requires n > 3t (n = " << n << ", t = " << t
                                                    << ")");
  for (const VertexId v : inputs) tree.require_vertex(v);

  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "tree_aa";
    report->add_param("tree_n", static_cast<std::uint64_t>(tree.n()));
    report->add_param("tree_diameter",
                      static_cast<std::uint64_t>(tree.diameter()));
  }
  // One shared index serves every party's LCA/projection queries and the
  // per-round probes.
  return detail::run_tree_aa_over(
      index, inputs, t, opts, std::move(adversary), hooks, engine_opts,
      [&index](const sim::Engine& engine,
               const std::vector<TreeAAProcess*>& procs, obs::RoundSample& s) {
        snapshot_tree_aa(index, engine, procs, s);
      });
}

AgreementCheck check_agreement(const LabeledTree& tree,
                               const std::vector<VertexId>& honest_inputs,
                               const std::vector<VertexId>& honest_outputs) {
  return check_agreement(perf::TreeIndex(tree), honest_inputs,
                         honest_outputs);
}

AgreementCheck check_agreement(const perf::TreeIndex& index,
                               const std::vector<VertexId>& honest_inputs,
                               const std::vector<VertexId>& honest_outputs) {
  TREEAA_REQUIRE(!honest_inputs.empty() && !honest_outputs.empty());
  AgreementCheck check;

  check.valid = std::all_of(
      honest_outputs.begin(), honest_outputs.end(),
      [&](VertexId v) { return index.in_hull(honest_inputs, v); });

  check.max_pairwise_distance =
      index.max_pairwise_distance(honest_outputs, honest_outputs);
  check.one_agreement = check.max_pairwise_distance <= 1;
  return check;
}

}  // namespace treeaa::core

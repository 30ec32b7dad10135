#include "graphs/block_aa.h"

#include <algorithm>

#include "common/check.h"
#include "trees/paths.h"

namespace treeaa::graphs {

std::size_t block_aa_rounds(const BlockIndex& index, std::size_t n,
                            std::size_t t, const BlockAAOptions& opts) {
  return core::tree_aa_rounds(index.agreement_tree(), n, t, opts);
}

VertexId resolve_block_output(const BlockIndex& index, VertexId a_node,
                              VertexId own_input) {
  return index.resolve(a_node, own_input);
}

namespace {

/// Merges the honest parties' current state into the sample of the round
/// that just ended — in the *graph* metric: every inner A-node estimate is
/// resolved through the party's own gate map first, so value_diameter is a
/// G-distance and the ledger's block-graph checks read the series directly.
void snapshot_block_aa(const BlockIndex& index, const sim::Engine& engine,
                       const std::vector<core::TreeAAProcess*>& procs,
                       const std::vector<VertexId>& inputs,
                       obs::RoundSample& s) {
  std::vector<VertexId> estimates;
  estimates.reserve(procs.size());
  std::uint64_t detected = 0;
  for (PartyId p = 0; p < procs.size(); ++p) {
    if (engine.is_corrupt(p)) continue;
    estimates.push_back(
        resolve_block_output(index, procs[p]->current_estimate(), inputs[p]));
    detected = std::max(detected, static_cast<std::uint64_t>(
                                      procs[p]->current_detected_faulty()));
  }
  if (estimates.empty()) return;
  s.value_diameter = static_cast<double>(
      index.max_pairwise_distance(estimates, estimates));
  // Hull size in A(G), restricted to vertex nodes — on a block graph this
  // equals |<estimates>| in G (Steiner-tree equivalence).
  std::vector<VertexId> nodes;
  nodes.reserve(estimates.size());
  for (const VertexId v : estimates) nodes.push_back(index.to_agreement(v));
  std::size_t hull_vertices = 0;
  for (const VertexId node : convex_hull(index.agreement_tree(), nodes)) {
    if (index.is_vertex_node(node)) ++hull_vertices;
  }
  s.hull_size = hull_vertices;
  s.detected_faulty = detected;
}

}  // namespace

BlockRunResult run_block_aa(const BlockIndex& index,
                            const std::vector<VertexId>& inputs,
                            std::size_t t, BlockAAOptions opts,
                            std::unique_ptr<sim::Adversary> adversary,
                            const obs::Hooks* hooks,
                            sim::EngineOptions engine_opts) {
  const std::size_t n = inputs.size();
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t),
                     "BlockAA requires n > 3t (n = " << n << ", t = " << t
                                                     << ")");
  for (const VertexId v : inputs) index.graph().require_vertex(v);

  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "block_aa";
    report->add_param("graph_n", static_cast<std::uint64_t>(index.n()));
    report->add_param("graph_diameter",
                      static_cast<std::uint64_t>(index.diameter()));
    report->add_param(
        "agreement_n", static_cast<std::uint64_t>(index.agreement_tree().n()));
    report->add_param(
        "agreement_diameter",
        static_cast<std::uint64_t>(index.agreement_tree().diameter()));
    report->add_param(
        "blocks",
        static_cast<std::uint64_t>(index.decomposition().blocks().size()));
    report->add_param(
        "cut_vertices",
        static_cast<std::uint64_t>(index.decomposition().cut_count()));
  }
  // The unmodified TreeAA on A(G), through the shared TreeIndex the
  // BlockIndex already built; the lift is the identity on labels.
  std::vector<VertexId> lifted;
  lifted.reserve(n);
  for (const VertexId v : inputs) lifted.push_back(index.to_agreement(v));
  BlockRunResult result = core::detail::run_tree_aa_over(
      index.agreement_index(), lifted, t, opts, std::move(adversary), hooks,
      engine_opts,
      [&](const sim::Engine& engine,
          const std::vector<core::TreeAAProcess*>& procs,
          obs::RoundSample& s) {
        snapshot_block_aa(index, engine, procs, inputs, s);
      });
  for (PartyId p = 0; p < n; ++p) {
    auto& out = result.outputs[p];
    if (out.has_value()) out = resolve_block_output(index, *out, inputs[p]);
  }
  if (report != nullptr) {
    // The arXiv:2502.05591 budget the convergence ledger checks against.
    report->add_param(
        "block_round_bound",
        static_cast<std::uint64_t>(block_aa_rounds(index, n, t, opts)));
  }
  return result;
}

}  // namespace treeaa::graphs

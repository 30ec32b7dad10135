// BlockAA — Approximate Agreement on block graphs (arXiv:2502.05591).
//
// The follow-up paper's reduction, implemented literally: run TreeAA on
// the agreement tree A(G) (blocks.h) and map the answers back.
//
//   1. Each party lifts its input vertex v to the A-node of v (vertices of
//      G are nodes of A, so the lift is the identity on labels).
//   2. All parties run the unmodified TreeAA on A(G) — same PathsFinder,
//      same gradecast, same phase-2 RealAA over path indices, same round
//      budget formula, on the same sim::Process machinery. Nothing about
//      the inner protocol knows blocks exist.
//   3. The inner output is an A-node. A vertex node *is* a G vertex —
//      output it. A block node stands for a whole block X; party p outputs
//      gate(X, v_p): the first vertex on the A-path from X toward p's own
//      input (v_p itself when v_p ∈ X).
//
// Why the gate mapping preserves the AA conditions:
//
//   * Validity — the inner TreeAA output lies in the A-hull of the lifted
//     inputs, i.e. on the Steiner tree of the input nodes. A vertex node
//     on that tree is a cut vertex on a geodesic between two inputs, hence
//     in the G-hull. For a block node X, the gate toward v_p lies on the
//     A-path from X to the input v_p — still inside the Steiner tree, so
//     the same argument applies. This holds for *any* block shape.
//
//   * 1-Agreement — honest inner outputs are equal or adjacent in A. Equal
//     vertex nodes map to one vertex; adjacent vertex/block nodes map into
//     one block. On a block graph (clique blocks) any two vertices of a
//     block are adjacent, giving distance <= 1; with cycle blocks the
//     guarantee is "same block" (graphs::check_agreement's disjunction).
//
//   * Degenerate case — on a tree, A(G) == G, the lift and the gate map
//     are identities, and the inner run *is* TreeAA: transcripts are byte-
//     identical (tests/graphs/tree_equivalence_test.cpp pins this across
//     every tree generator family).
//
// Round complexity: tree_aa_rounds(A(G)) with |V(A)| < 2|V(G)|, preserving
// the paper's O(log n / log log n) on block graphs — the budget the
// convergence ledger checks reports against (`block_round_bound`).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/api.h"
#include "core/tree_aa.h"
#include "graphs/block_index.h"
#include "obs/report.h"
#include "sim/adversary.h"
#include "sim/engine.h"
#include "sim/stats.h"

namespace treeaa::graphs {

/// Same knobs as TreeAA — they parameterize the inner engine.
using BlockAAOptions = core::TreeAAOptions;

/// Total rounds BlockAA takes on the graph behind `index`:
/// tree_aa_rounds(A(G)). Public knowledge, identical for every party.
[[nodiscard]] std::size_t block_aa_rounds(const BlockIndex& index,
                                          std::size_t n, std::size_t t,
                                          const BlockAAOptions& opts = {});

/// The step-3 gate mapping: resolves the inner TreeAA output `a_node` to a
/// G vertex from the perspective of `own_input`.
[[nodiscard]] VertexId resolve_block_output(const BlockIndex& index,
                                            VertexId a_node,
                                            VertexId own_input);

/// Per-party G-vertex outputs (disengaged for corrupt parties) plus the
/// inner TreeAA's telemetry — the same fields as a TreeAA run.
using BlockRunResult = core::RunResult;

/// Runs BlockAA with `inputs.size()` parties holding the given G vertices,
/// tolerating up to `t` corruptions. Mirrors core::run_tree_aa exactly —
/// hooks attach the same per-round convergence probes (diameters measured
/// in the *graph* metric via the BlockIndex, which is what the ledger's
/// block-graph checks consume), and `engine_opts` threading never changes
/// any byte of the results.
[[nodiscard]] BlockRunResult run_block_aa(
    const BlockIndex& index, const std::vector<VertexId>& inputs,
    std::size_t t, BlockAAOptions opts = {},
    std::unique_ptr<sim::Adversary> adversary = nullptr,
    const obs::Hooks* hooks = nullptr, sim::EngineOptions engine_opts = {});

}  // namespace treeaa::graphs

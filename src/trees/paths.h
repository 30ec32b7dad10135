// Path and convex-hull operations on labeled trees (paper §2 and §5).
//
// * The convex hull <S> of a vertex set S is the vertex set of the smallest
//   connected subtree containing S; equivalently, w ∈ <S> iff w lies on the
//   path between some pair of vertices of S (paper, Figure 1).
// * The projection proj_P(v) of a vertex onto a path P is the vertex of P
//   closest to v (paper, Figure 2); on a tree it equals the median of
//   {P's endpoints, v}.
//
// Everything here takes a bare LabeledTree and computes by parent walks; the
// O(1) lca / distance / projection queries live in perf::TreeIndex, which
// this library cannot link. Intentionally naive brute-force versions are
// provided as test oracles.
#pragma once

#include <span>
#include <vector>

#include "common/types.h"
#include "trees/labeled_tree.h"

namespace treeaa {

/// True iff `p` is a simple path in `tree` (consecutive vertices adjacent,
/// no repeats). The empty sequence is not a path; a single vertex is.
[[nodiscard]] bool is_simple_path(const LabeledTree& tree,
                                  std::span<const VertexId> p);

/// proj_P(v): the vertex of path `p` with the smallest distance to `v`, by
/// scanning all path vertices. O(|p| * D(T)); the protocols use
/// perf::TreeIndex::project_onto_path instead. Requires `p` non-empty.
[[nodiscard]] VertexId project_onto_path_bruteforce(
    const LabeledTree& tree, std::span<const VertexId> p, VertexId v);

/// 1-based position of `v` within path `p` (the paper writes v_1 .. v_k).
/// Requires that `v` occurs in `p`.
[[nodiscard]] std::size_t index_in_path(std::span<const VertexId> p,
                                        VertexId v);

/// Convex hull <S> as a sorted vertex list. Computed as the union of the
/// paths from one element of S to every other element (that union is a
/// connected subgraph containing S, hence contains the minimal subtree, and
/// each such path lies inside it — so it *is* the hull). O(|S| * D(T)) by
/// parent walks.
/// Requires S non-empty.
[[nodiscard]] std::vector<VertexId> convex_hull(const LabeledTree& tree,
                                                std::span<const VertexId> s);

/// Convex hull via the definition: union of P(u, v) over all pairs.
/// O(|S|^2 * D(T)); used for cross-validation.
[[nodiscard]] std::vector<VertexId> convex_hull_bruteforce(
    const LabeledTree& tree, std::span<const VertexId> s);

/// Membership test w ∈ <S> without materializing the hull: w ∈ <S> iff
/// d(u, w) + d(w, v) == d(u, v) for some pair u, v ∈ S (u == v allowed,
/// covering w ∈ S). O(|S|^2 * D(T)) by parent walks.
[[nodiscard]] bool in_hull(const LabeledTree& tree,
                           std::span<const VertexId> s, VertexId w);

}  // namespace treeaa

// TreeIndex — the one precomputed query structure for a LabeledTree.
//
// Lemma 2 property 4 (paper §6) says the LCA of u and v is the minimum-depth
// entry of the Euler list between their occurrences. So one ListConstruction
// list plus one range-minimum structure over its depths answers every tree
// query the protocols, check_agreement and the BlockAA reduction need.
// TreeIndex builds both in O(n):
//
//   * the Euler list (ListConstruction, shared with the protocols so the
//     list is built once per experiment instead of once per subsystem).
//     No DFS runs: by Lemma 2 the list is a function of the ordered rooted
//     tree, so EulerList places every entry from subtree sizes over
//     LabeledTree's flat BFS order and yields the paper's DFS list exactly;
//   * a linear RMQ over the tour depths: a sparse table over 64-entry
//     blocks plus, per tour position, a 64-bit mask of the in-block
//     min-stack. Tour depths move by ±1, so each mask follows from the
//     previous one and the parent's earlier occurrence with no pop loop.
//     A query reads at most two masks and two table cells, so lca,
//     distance, depth, ancestor and median queries are O(1);
//   * root-anchored path materialization with a single exact-size
//     allocation — the paths PathsFinder and TreeAA produce are always
//     anchored at the root, so a path is just the ancestor chain reversed
//     and the 1-based index of any vertex on it is depth + 1.
//
// Ties need no rule: every minimum-depth entry of a window between two first
// occurrences is the LCA vertex itself. Every query rejects an out-of-range
// vertex id with std::invalid_argument, as LabeledTree does. The property
// tests in tests/perf pin every query against parent-walk references.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "trees/euler.h"
#include "trees/labeled_tree.h"

namespace treeaa::perf {

class TreeIndex {
 public:
  /// Builds the index: the Euler list plus the O(n) block RMQ, each in a
  /// few linear passes. `tree` must outlive the index.
  explicit TreeIndex(const LabeledTree& tree);

  [[nodiscard]] const LabeledTree& tree() const { return *tree_; }
  /// The Euler list of the tree, which PathsFinder feeds into RealAA.
  [[nodiscard]] const EulerList& euler() const { return euler_; }

  [[nodiscard]] VertexId root() const { return tree_->root(); }
  [[nodiscard]] std::size_t n() const { return tree_->n(); }

  /// Depth of v (root has depth 0). O(1).
  [[nodiscard]] std::uint32_t depth(VertexId v) const;

  /// Lowest common ancestor. O(1).
  [[nodiscard]] VertexId lca(VertexId u, VertexId v) const;

  /// d(u, v). O(1).
  [[nodiscard]] std::uint32_t distance(VertexId u, VertexId v) const;

  /// True iff `a` is an ancestor of `d` (a vertex is its own ancestor). O(1).
  [[nodiscard]] bool is_ancestor(VertexId a, VertexId d) const {
    return lca(a, d) == a;
  }

  /// The median m(a, b, c) — the unique vertex on all three pairwise paths.
  /// O(1): the median is the deepest of the three pairwise LCAs.
  [[nodiscard]] VertexId median(VertexId a, VertexId b, VertexId c) const;

  /// proj_P(v) for the path with endpoints `front` and `back`: the vertex of
  /// P closest to v, which is the median m(front, back, v). O(1).
  [[nodiscard]] VertexId project_onto_path(VertexId front, VertexId back,
                                           VertexId v) const {
    return median(front, back, v);
  }

  /// The root-anchored path P(root, tip) as a vertex sequence, root first.
  /// One exact-size allocation, O(depth(tip)).
  [[nodiscard]] std::vector<VertexId> root_path(VertexId tip) const;

  /// 1-based index of `v` on any root-anchored path that contains it (the
  /// paper's v_1 .. v_k with v_1 = root): depth(v) + 1. O(1).
  [[nodiscard]] std::size_t index_on_root_path(VertexId v) const {
    return static_cast<std::size_t>(depth(v)) + 1;
  }

  /// Membership test w ∈ <S> using the anchor decomposition: the hull is
  /// the union of the paths from s.front() to every element, so w is in it
  /// iff it lies on one of those paths. O(|S|) with O(1) distances.
  [[nodiscard]] bool in_hull(std::span<const VertexId> s, VertexId w) const;

  /// max over pairs of d(u, v). O(|a|·|b|) with O(1) distances.
  [[nodiscard]] std::uint32_t max_pairwise_distance(
      std::span<const VertexId> a, std::span<const VertexId> b) const;

 private:
  /// 0-based tour position of v's first occurrence; rejects bad ids.
  [[nodiscard]] std::uint32_t first(VertexId v) const;
  /// The minimum key of tour positions [a, b], a <= b.
  [[nodiscard]] std::uint64_t min_key(std::uint32_t a, std::uint32_t b) const;
  /// min_key when [a, b] lies inside one block.
  [[nodiscard]] std::uint64_t min_key_in_block(std::uint32_t a,
                                               std::uint32_t b) const;
  /// The key of lca(u, v): the minimum key between the first occurrences.
  [[nodiscard]] std::uint64_t lca_key(VertexId u, VertexId v) const;

  const LabeledTree* tree_;
  EulerList euler_;
  std::vector<std::uint32_t> first_;  // vertex -> first tour position
  // (depth << 32) | vertex per tour entry. Keys order by depth first, and
  // a window's minimum-depth entries all carry the LCA, so the minimum key
  // of a window names the LCA and its depth with no further lookup.
  std::vector<std::uint64_t> tour_key_;
  // stack_mask_[k] bit i: block position i is on the min-stack of the
  // block's entries up to k, i.e. its key is no larger than any in (i, k].
  std::vector<std::uint64_t> stack_mask_;
  // Sparse table over blocks, level-major: block_min_[j * blocks_ + b] is
  // the minimum key of blocks [b, b + 2^j).
  std::vector<std::uint64_t> block_min_;
  std::size_t blocks_ = 0;
};

}  // namespace treeaa::perf

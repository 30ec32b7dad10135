// ListConstruction (paper §6, Lemma 2): the Euler-tour list representation
// of a rooted tree.
//
// Each party runs a DFS from the fixed root and records a vertex every time
// the traversal is at that vertex: once on entry, and once more after
// returning from each child. For the tree of Figure 3 rooted at v1 this
// yields L = [v1, v2, v3, v6, v3, v7, v3, v2, v4, v8, v4, v2, v5, v2, v1].
//
// The construction is deterministic (children are visited in ascending label
// order, which LabeledTree canonicalizes as ascending id order), so every
// honest party computes the identical list — the property PathsFinder
// depends on.
//
// This class builds that same list without the DFS. By Lemma 2 the list is
// a function of the ordered rooted tree: the subtree of v fills one block
// of 2|sub(v)| − 1 consecutive entries, v first and v again after each
// child's block. So one reverse pass over LabeledTree::bfs_order() computes
// subtree sizes, and one forward pass writes every entry and every
// occurrence set at its final position. Both routes give the identical list;
// tests/trees/euler_test.cpp checks it against a recursive ListConstruction.
//
// Indices are 1-based to match the paper's notation L_1 .. L_|L|.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "common/types.h"
#include "trees/labeled_tree.h"

namespace treeaa {

/// The list L returned by ListConstruction(T, v_root), with the per-vertex
/// occurrence index sets L(v) precomputed.
class EulerList {
 public:
  /// Runs ListConstruction on `tree` rooted at tree.root(). O(|V|).
  explicit EulerList(const LabeledTree& tree);

  /// |L|. Equals 2|V| - 1 (Lemma 2 guarantees |L| <= 2|V|; recording the
  /// root only on entry and after each child gives exactly 2|V| - 1).
  [[nodiscard]] std::size_t size() const { return list_.size(); }

  /// L_i, 1-based as in the paper. Requires 1 <= i <= size().
  [[nodiscard]] VertexId at(std::size_t i) const;

  /// The occurrence index set L(v), ascending, 1-based. Non-empty for every
  /// vertex (Lemma 2, property 2).
  [[nodiscard]] std::span<const std::size_t> occurrences(VertexId v) const;

  /// min L(v) — the index PathsFinder feeds into RealAA (§6, WLOG choice).
  [[nodiscard]] std::size_t first_occurrence(VertexId v) const;

  /// max L(v).
  [[nodiscard]] std::size_t last_occurrence(VertexId v) const;

  /// The raw list (0-based storage; element k is L_{k+1}).
  [[nodiscard]] std::span<const VertexId> raw() const { return list_; }

 private:
  std::vector<VertexId> list_;  // 0-based storage
  // L(v) is occurrence_positions_[occurrence_offsets_[v] ..
  // occurrence_offsets_[v + 1]), 1-based and ascending: one flat array
  // instead of one allocation per vertex.
  std::vector<std::size_t> occurrence_offsets_;    // n + 1 entries
  std::vector<std::size_t> occurrence_positions_;  // |L| entries
};

}  // namespace treeaa

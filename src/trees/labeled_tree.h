// LabeledTree — the input space of Approximate Agreement on trees.
//
// The paper (§2) considers a labeled tree T that is publicly known to all
// parties; each party holds one vertex of T as its input. Labels are strings
// and are significant: the protocol roots T at the vertex with the
// lexicographically smallest label (§7, line 1), and the DFS of
// ListConstruction must visit children in a deterministic order so that all
// honest parties compute the identical Euler list. This class therefore
// canonicalizes the tree at construction:
//
//   * vertices are assigned ids 0..n-1 in lexicographic label order
//     (so the root, the smallest label, is always vertex 0);
//   * adjacency lists are sorted ascending by id (= ascending by label);
//   * the rooted view (parent / depth / children) and the diameter are
//     precomputed.
//
// The rooted view is flat. One BFS from the root fixes bfs_order(), in
// which every parent precedes its children; the children of each vertex are
// one contiguous, ascending run of that order, so children(v) is a slice of
// it (a CSR whose id array is the BFS order itself). By Lemma 2 the Euler
// list is a function of this ordered rooted tree alone, which is what lets
// EulerList place every entry from subtree sizes instead of running the
// paper's DFS: both yield the same list.
//
// LabeledTree holds no LCA table: lca / distance / median queries go through
// perf::TreeIndex (the Euler list plus an O(n) RMQ), and path() walks parent
// pointers. The class is immutable after construction, which is exactly the
// setting of the paper: the input space is fixed and common knowledge.
#pragma once

#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/types.h"

namespace treeaa {

class LabeledTree {
 public:
  /// Builds a tree from an undirected edge list over string labels. Isolated
  /// vertices cannot be expressed by edges; use `single` for the one-vertex
  /// tree. Throws std::invalid_argument if the edges do not form a tree
  /// (duplicate edge, self-loop, cycle, or disconnected input).
  static LabeledTree from_edges(
      const std::vector<std::pair<std::string, std::string>>& edges);

  /// The one-vertex tree.
  static LabeledTree single(std::string label);

  /// Number of vertices |V(T)|. Always >= 1.
  [[nodiscard]] std::size_t n() const { return labels_.size(); }

  /// Label of a vertex.
  [[nodiscard]] const std::string& label(VertexId v) const;

  /// Vertex with the given label, if present.
  [[nodiscard]] std::optional<VertexId> find(std::string_view label) const;

  /// Neighbors of v, sorted ascending by id (= by label).
  [[nodiscard]] std::span<const VertexId> neighbors(VertexId v) const;

  [[nodiscard]] std::size_t degree(VertexId v) const {
    return neighbors(v).size();
  }

  // --- Rooted view. The root is the lexicographically smallest label, which
  // --- by the id canonicalization is always vertex 0.

  [[nodiscard]] VertexId root() const { return 0; }

  /// Parent of v in the rooted view; kNoVertex for the root.
  [[nodiscard]] VertexId parent(VertexId v) const {
    require_vertex(v);
    return parent_[v];
  }

  /// Depth of v (root has depth 0).
  [[nodiscard]] std::uint32_t depth(VertexId v) const {
    require_vertex(v);
    return depth_[v];
  }

  /// Children of v in the rooted view, sorted ascending by id.
  [[nodiscard]] std::span<const VertexId> children(VertexId v) const {
    require_vertex(v);
    const auto [begin, end] = child_range_[v];
    return std::span<const VertexId>(bfs_order_).subspan(begin, end - begin);
  }

  /// Every vertex once, in BFS order from the root with children in
  /// ascending id order: each parent comes before its children, so a
  /// reverse walk visits children before parents.
  [[nodiscard]] std::span<const VertexId> bfs_order() const {
    return bfs_order_;
  }

  /// The unique path P(u, v) as a vertex sequence starting at u and ending
  /// at v (inclusive). For u == v this is the single-vertex path. A parent
  /// walk that first brings both ends to the same depth: O(|P|).
  [[nodiscard]] std::vector<VertexId> path(VertexId u, VertexId v) const;

  /// Tree diameter D(T): length of the longest path. 0 for a single vertex.
  [[nodiscard]] std::uint32_t diameter() const { return diameter_; }

  /// Endpoints of one longest path (ties broken deterministically).
  [[nodiscard]] std::pair<VertexId, VertexId> diameter_endpoints() const {
    return diameter_ends_;
  }

  /// Validates v < n(), throwing std::invalid_argument otherwise.
  void require_vertex(VertexId v) const {
    if (v >= n()) [[unlikely]] reject_vertex(v);
  }

 private:
  LabeledTree() = default;

  /// The throw behind require_vertex, kept out of line.
  [[gnu::cold, gnu::noinline]] void reject_vertex(VertexId v) const;

  void build_rooted_view();
  void compute_diameter();

  /// Farthest vertex from src and its distance, via BFS; ties broken by
  /// smallest id so results are deterministic.
  [[nodiscard]] std::pair<VertexId, std::uint32_t> farthest_from(
      VertexId src) const;

  std::vector<std::string> labels_;                     // id -> label
  std::unordered_map<std::string, VertexId> by_label_;  // label -> id
  std::vector<std::vector<VertexId>> adj_;              // sorted neighbor ids
  std::vector<VertexId> parent_;
  std::vector<std::uint32_t> depth_;
  std::vector<VertexId> bfs_order_;
  // children(v) is bfs_order_[child_range_[v].first, .second).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> child_range_;
  std::uint32_t diameter_ = 0;
  std::pair<VertexId, VertexId> diameter_ends_{0, 0};
};

}  // namespace treeaa

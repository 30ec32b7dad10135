#include "trees/paths.h"

#include <algorithm>
#include <unordered_set>

#include "common/check.h"

namespace treeaa {

namespace {

/// d(u, v) as the length of the parent-walk path P(u, v). O(|P|).
std::uint32_t walk_distance(const LabeledTree& tree, VertexId u,
                            VertexId v) {
  return static_cast<std::uint32_t>(tree.path(u, v).size() - 1);
}

}  // namespace

bool is_simple_path(const LabeledTree& tree, std::span<const VertexId> p) {
  if (p.empty()) return false;
  std::unordered_set<VertexId> seen;
  for (const VertexId v : p) {
    if (v >= tree.n()) return false;
    if (!seen.insert(v).second) return false;
  }
  for (std::size_t i = 0; i + 1 < p.size(); ++i) {
    const auto nbrs = tree.neighbors(p[i]);
    if (!std::binary_search(nbrs.begin(), nbrs.end(), p[i + 1])) return false;
  }
  return true;
}

VertexId project_onto_path_bruteforce(const LabeledTree& tree,
                                      std::span<const VertexId> p,
                                      VertexId v) {
  TREEAA_REQUIRE_MSG(!p.empty(), "projection onto an empty path");
  VertexId best = p.front();
  std::uint32_t best_dist = walk_distance(tree, best, v);
  for (const VertexId u : p.subspan(1)) {
    const std::uint32_t d = walk_distance(tree, u, v);
    if (d < best_dist) {
      best = u;
      best_dist = d;
    }
  }
  return best;
}

std::size_t index_in_path(std::span<const VertexId> p, VertexId v) {
  for (std::size_t i = 0; i < p.size(); ++i) {
    if (p[i] == v) return i + 1;
  }
  TREEAA_REQUIRE_MSG(false, "vertex " << v << " not on path");
  return 0;  // unreachable
}

std::vector<VertexId> convex_hull(const LabeledTree& tree,
                                  std::span<const VertexId> s) {
  TREEAA_REQUIRE_MSG(!s.empty(), "convex hull of an empty set");
  std::vector<bool> mark(tree.n(), false);
  const VertexId anchor = s.front();
  for (const VertexId v : s) {
    for (const VertexId x : tree.path(anchor, v)) mark[x] = true;
  }
  std::vector<VertexId> hull;
  for (VertexId v = 0; v < tree.n(); ++v) {
    if (mark[v]) hull.push_back(v);
  }
  return hull;
}

std::vector<VertexId> convex_hull_bruteforce(const LabeledTree& tree,
                                             std::span<const VertexId> s) {
  TREEAA_REQUIRE_MSG(!s.empty(), "convex hull of an empty set");
  std::vector<bool> mark(tree.n(), false);
  for (const VertexId u : s) {
    for (const VertexId v : s) {
      for (const VertexId w : tree.path(u, v)) mark[w] = true;
    }
  }
  std::vector<VertexId> hull;
  for (VertexId v = 0; v < tree.n(); ++v) {
    if (mark[v]) hull.push_back(v);
  }
  return hull;
}

bool in_hull(const LabeledTree& tree, std::span<const VertexId> s,
             VertexId w) {
  tree.require_vertex(w);
  for (const VertexId u : s) {
    for (const VertexId v : s) {
      if (walk_distance(tree, u, w) + walk_distance(tree, w, v) ==
          walk_distance(tree, u, v)) {
        return true;
      }
    }
  }
  return false;
}

}  // namespace treeaa

#include "trees/safe_area.h"

#include <algorithm>
#include <deque>
#include <numeric>

#include "common/check.h"
#include "trees/paths.h"

namespace treeaa {

std::vector<VertexId> safe_area(const LabeledTree& tree,
                                std::span<const VertexId> m, std::size_t t) {
  const std::size_t total = m.size();
  TREEAA_REQUIRE_MSG(total >= 2 * t + 1,
                     "safe area needs |m| >= 2t + 1 (|m| = "
                         << total << ", t = " << t << ")");
  const std::size_t n = tree.n();

  // Multiplicity of each vertex in the multiset.
  std::vector<std::size_t> mult(n, 0);
  for (const VertexId v : m) {
    tree.require_vertex(v);
    ++mult[v];
  }

  // Subtree counts, children before parents: the BFS order reversed.
  const auto order = tree.bfs_order();
  std::vector<std::size_t> cnt = mult;
  for (std::size_t i = n; i-- > 1;) {
    cnt[tree.parent(order[i])] += cnt[order[i]];
  }
  TREEAA_CHECK(cnt[tree.root()] == total);

  // v is safe iff every component of T - v holds <= total - t - 1 elements.
  const std::size_t limit = total - t - 1;
  std::vector<VertexId> area;
  for (VertexId v = 0; v < n; ++v) {
    bool safe = total - cnt[v] <= limit;  // the component above v
    if (safe) {
      for (const VertexId c : tree.children(v)) {
        if (cnt[c] > limit) {
          safe = false;
          break;
        }
      }
    }
    if (safe) area.push_back(v);
  }
  TREEAA_CHECK_MSG(!area.empty(), "safe area empty despite |m| >= 2t + 1");
  return area;
}

std::vector<VertexId> safe_area_bruteforce(const LabeledTree& tree,
                                           std::span<const VertexId> m,
                                           std::size_t t) {
  const std::size_t total = m.size();
  TREEAA_REQUIRE(total >= 2 * t + 1);
  const std::size_t keep = total - t;

  std::vector<bool> safe(tree.n(), true);
  // Enumerate all `keep`-subsets of positions via combination stepping.
  std::vector<std::size_t> idx(keep);
  std::iota(idx.begin(), idx.end(), 0);
  while (true) {
    std::vector<VertexId> subset;
    subset.reserve(keep);
    for (const std::size_t i : idx) subset.push_back(m[i]);
    std::vector<bool> in(tree.n(), false);
    for (const VertexId v : convex_hull(tree, subset)) in[v] = true;
    for (VertexId v = 0; v < tree.n(); ++v) {
      if (!in[v]) safe[v] = false;
    }
    // Advance the combination.
    std::size_t i = keep;
    while (i > 0 && idx[i - 1] == total - keep + i - 1) --i;
    if (i == 0) break;
    ++idx[i - 1];
    for (std::size_t j = i; j < keep; ++j) idx[j] = idx[j - 1] + 1;
  }

  std::vector<VertexId> area;
  for (VertexId v = 0; v < tree.n(); ++v) {
    if (safe[v]) area.push_back(v);
  }
  return area;
}

namespace {

/// Farthest vertex from `src` within the induced subtree `in`, ties broken
/// by smallest id. Returns {vertex, distance}.
std::pair<VertexId, std::uint32_t> farthest_within(const LabeledTree& tree,
                                                   const std::vector<bool>& in,
                                                   VertexId src) {
  std::vector<std::uint32_t> dist(tree.n(), ~0u);
  std::deque<VertexId> queue{src};
  dist[src] = 0;
  VertexId best = src;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    if (dist[v] > dist[best] || (dist[v] == dist[best] && v < best)) best = v;
    for (const VertexId w : tree.neighbors(v)) {
      if (!in[w] || dist[w] != ~0u) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  return {best, dist[best]};
}

}  // namespace

VertexId subtree_midpoint(const LabeledTree& tree,
                          std::span<const VertexId> area) {
  TREEAA_REQUIRE_MSG(!area.empty(), "midpoint of an empty area");
  std::vector<bool> in(tree.n(), false);
  VertexId start = area.front();
  for (const VertexId v : area) {
    tree.require_vertex(v);
    in[v] = true;
    start = std::min(start, v);
  }
  // Two-sweep BFS inside the induced subtree; all ties broken by id, so the
  // result is a deterministic function of (tree, area).
  const auto [a, da] = farthest_within(tree, in, start);
  (void)da;
  const auto [b, db] = farthest_within(tree, in, a);
  const auto diam_path = tree.path(a, b);
  TREEAA_CHECK(diam_path.size() == db + 1);
  return diam_path[db / 2];
}

}  // namespace treeaa

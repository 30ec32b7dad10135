#include "trees/metrics.h"

#include <algorithm>
#include <deque>

#include "common/check.h"

namespace treeaa {

std::uint32_t eccentricity(const LabeledTree& tree, VertexId v) {
  tree.require_vertex(v);
  std::vector<std::uint32_t> dist(tree.n(), ~0u);
  std::deque<VertexId> queue{v};
  dist[v] = 0;
  std::uint32_t best = 0;
  while (!queue.empty()) {
    const VertexId x = queue.front();
    queue.pop_front();
    best = std::max(best, dist[x]);
    for (const VertexId w : tree.neighbors(x)) {
      if (dist[w] != ~0u) continue;
      dist[w] = dist[x] + 1;
      queue.push_back(w);
    }
  }
  return best;
}

std::vector<VertexId> tree_center(const LabeledTree& tree) {
  // The centers are the middle vertex/vertices of any diametral path.
  const auto [a, b] = tree.diameter_endpoints();
  const auto path = tree.path(a, b);
  const std::size_t len = path.size() - 1;
  std::vector<VertexId> centers{path[len / 2]};
  if (len % 2 == 1) centers.push_back(path[len / 2 + 1]);
  std::sort(centers.begin(), centers.end());
  return centers;
}

std::vector<VertexId> tree_centroid(const LabeledTree& tree) {
  const std::size_t n = tree.n();
  // subtree_size, children before parents: the BFS order reversed.
  const auto order = tree.bfs_order();
  std::vector<std::size_t> size(n, 1);
  for (std::size_t i = n; i-- > 1;) {
    size[tree.parent(order[i])] += size[order[i]];
  }
  std::vector<std::size_t> worst(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    worst[v] = n - size[v];  // the component through the parent
    for (const VertexId c : tree.children(v)) {
      worst[v] = std::max(worst[v], size[c]);
    }
  }
  const std::size_t best = *std::min_element(worst.begin(), worst.end());
  std::vector<VertexId> centroids;
  for (VertexId v = 0; v < n; ++v) {
    if (worst[v] == best) centroids.push_back(v);
  }
  TREEAA_CHECK(centroids.size() == 1 || centroids.size() == 2);
  return centroids;
}

std::vector<std::size_t> degree_histogram(const LabeledTree& tree) {
  std::size_t max_degree = 0;
  for (VertexId v = 0; v < tree.n(); ++v) {
    max_degree = std::max(max_degree, tree.degree(v));
  }
  std::vector<std::size_t> histogram(max_degree + 1, 0);
  for (VertexId v = 0; v < tree.n(); ++v) ++histogram[tree.degree(v)];
  return histogram;
}

}  // namespace treeaa

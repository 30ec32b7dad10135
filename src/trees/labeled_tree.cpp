#include "trees/labeled_tree.h"

#include <algorithm>
#include <deque>
#include <stdexcept>

#include "common/check.h"

namespace treeaa {

LabeledTree LabeledTree::single(std::string label) {
  LabeledTree t;
  t.by_label_.emplace(label, 0);
  t.labels_.push_back(std::move(label));
  t.adj_.emplace_back();
  t.build_rooted_view();
  t.compute_diameter();
  return t;
}

LabeledTree LabeledTree::from_edges(
    const std::vector<std::pair<std::string, std::string>>& edges) {
  TREEAA_REQUIRE_MSG(!edges.empty(),
                     "from_edges needs >= 1 edge; use single() for |V| = 1");

  // Collect and sort labels so that ids are assigned in lexicographic order.
  std::vector<std::string> labels;
  for (const auto& [a, b] : edges) {
    TREEAA_REQUIRE_MSG(a != b, "self-loop on label '" << a << "'");
    labels.push_back(a);
    labels.push_back(b);
  }
  std::sort(labels.begin(), labels.end());
  labels.erase(std::unique(labels.begin(), labels.end()), labels.end());

  TREEAA_REQUIRE_MSG(labels.size() == edges.size() + 1,
                     "edge list is not a tree: " << labels.size()
                                                 << " vertices, "
                                                 << edges.size() << " edges");

  LabeledTree t;
  t.labels_ = std::move(labels);
  t.by_label_.reserve(t.labels_.size());
  for (VertexId v = 0; v < t.labels_.size(); ++v) {
    t.by_label_.emplace(t.labels_[v], v);
  }
  t.adj_.assign(t.n(), {});
  for (const auto& [a, b] : edges) {
    const VertexId u = t.by_label_.at(a);
    const VertexId v = t.by_label_.at(b);
    t.adj_[u].push_back(v);
    t.adj_[v].push_back(u);
  }
  for (auto& nbrs : t.adj_) {
    std::sort(nbrs.begin(), nbrs.end());
    TREEAA_REQUIRE_MSG(
        std::adjacent_find(nbrs.begin(), nbrs.end()) == nbrs.end(),
        "duplicate edge in input");
  }

  t.build_rooted_view();  // also verifies connectivity
  t.compute_diameter();
  return t;
}

void LabeledTree::build_rooted_view() {
  const std::size_t n = this->n();
  parent_.assign(n, kNoVertex);
  depth_.assign(n, 0);
  child_range_.assign(n, {0, 0});
  bfs_order_.clear();
  bfs_order_.reserve(n);

  // Iterative BFS from the root with bfs_order_ as its queue. Dequeuing v
  // appends all of v's children at once, ascending by id (adjacency is
  // sorted), so they form one contiguous run of the order.
  std::vector<bool> seen(n, false);
  bfs_order_.push_back(root());
  seen[root()] = true;
  for (std::size_t head = 0; head < bfs_order_.size(); ++head) {
    const VertexId v = bfs_order_[head];
    const auto begin = static_cast<std::uint32_t>(bfs_order_.size());
    for (const VertexId w : adj_[v]) {
      if (seen[w]) continue;
      seen[w] = true;
      parent_[w] = v;
      depth_[w] = depth_[v] + 1;
      bfs_order_.push_back(w);
    }
    child_range_[v] = {begin, static_cast<std::uint32_t>(bfs_order_.size())};
  }
  TREEAA_REQUIRE_MSG(bfs_order_.size() == n, "edge list is not connected");
}

void LabeledTree::compute_diameter() {
  // Two-sweep BFS: farthest vertex from any vertex is a diameter endpoint.
  const auto [a, unused] = farthest_from(root());
  (void)unused;
  const auto [b, dist] = farthest_from(a);
  diameter_ = dist;
  diameter_ends_ = {std::min(a, b), std::max(a, b)};
}

std::pair<VertexId, std::uint32_t> LabeledTree::farthest_from(
    VertexId src) const {
  std::vector<std::uint32_t> dist(n(), ~0u);
  std::deque<VertexId> queue{src};
  dist[src] = 0;
  VertexId best = src;
  while (!queue.empty()) {
    const VertexId v = queue.front();
    queue.pop_front();
    if (dist[v] > dist[best] || (dist[v] == dist[best] && v < best)) best = v;
    for (const VertexId w : adj_[v]) {
      if (dist[w] != ~0u) continue;
      dist[w] = dist[v] + 1;
      queue.push_back(w);
    }
  }
  return {best, dist[best]};
}

const std::string& LabeledTree::label(VertexId v) const {
  require_vertex(v);
  return labels_[v];
}

std::optional<VertexId> LabeledTree::find(std::string_view label) const {
  const auto it = by_label_.find(std::string(label));
  if (it == by_label_.end()) return std::nullopt;
  return it->second;
}

std::span<const VertexId> LabeledTree::neighbors(VertexId v) const {
  require_vertex(v);
  return adj_[v];
}

std::vector<VertexId> LabeledTree::path(VertexId u, VertexId v) const {
  require_vertex(u);
  require_vertex(v);
  // Climb the deeper end (u on ties) until the ends meet at the LCA: a
  // vertex at least as deep as the other end, and distinct from it, is not
  // its ancestor, so neither end ever climbs past the LCA.
  std::vector<VertexId> head;  // u .. LCA, exclusive
  std::vector<VertexId> tail;  // v .. LCA, exclusive
  while (u != v) {
    if (depth_[u] >= depth_[v]) {
      head.push_back(u);
      u = parent_[u];
    } else {
      tail.push_back(v);
      v = parent_[v];
    }
  }
  head.push_back(u);
  head.insert(head.end(), tail.rbegin(), tail.rend());
  return head;
}

void LabeledTree::reject_vertex(VertexId v) const {
  TREEAA_REQUIRE_MSG(v < n(), "vertex id " << v << " out of range (n = "
                                           << n() << ")");
}

}  // namespace treeaa

#include "perf/tree_index.h"

#include <algorithm>
#include <bit>

#include "common/check.h"

namespace treeaa::perf {

namespace {

constexpr std::uint32_t kBlock = 64;  // tour entries per RMQ block

constexpr std::uint32_t key_depth(std::uint64_t key) {
  return static_cast<std::uint32_t>(key >> 32);
}

constexpr VertexId key_vertex(std::uint64_t key) {
  return static_cast<VertexId>(key);
}

}  // namespace

TreeIndex::TreeIndex(const LabeledTree& tree) : tree_(&tree), euler_(tree) {
  const auto tour = euler_.raw();
  const std::size_t m = tour.size();
  // A backward scan leaves each vertex's smallest position.
  first_.resize(tree.n());
  for (std::size_t k = m; k-- > 0;) {
    first_[tour[k]] = static_cast<std::uint32_t>(k);
  }
  tour_key_.resize(m);
  for (std::size_t k = 0; k < m; ++k) {
    tour_key_[k] = std::uint64_t{tree.depth(tour[k])} << 32 | tour[k];
  }

  // In-block min-stacks, one left-to-right scan per block; the lowest stack
  // bit at or after a is the leftmost minimum of [a, k]. Tour depths move
  // by ±1, so no entry needs a pop loop. An up step (one deeper) pops
  // nothing: its key exceeds the top's. A down step at k returns from
  // c = tour[k−1] to its parent p, whose previous occurrence is at
  // first(c) − 1. Every entry after that position is in c's subtree, deeper
  // than p, and pops; the occurrence itself has p's key and stays, and so
  // does everything below it. So on a down step mask[k] is mask[k−1] cut to
  // the bits before first(c) (none if first(c) is at or before the block
  // start) plus bit k; the two cases are blended without a branch.
  stack_mask_.resize(m);
  blocks_ = (m + kBlock - 1) / kBlock;
  const auto levels = static_cast<std::size_t>(std::bit_width(blocks_));
  block_min_.resize(levels * blocks_);
  for (std::size_t b = 0; b < blocks_; ++b) {
    const std::size_t lo = b * kBlock;
    const std::size_t hi = std::min(m, lo + kBlock);
    std::uint64_t stack = 1;
    stack_mask_[lo] = stack;
    for (std::size_t k = lo + 1; k < hi; ++k) {
      const std::uint64_t down = tour_key_[k] < tour_key_[k - 1];
      const std::size_t below =
          std::max<std::size_t>(first_[tour[k - 1]], lo) - lo;
      // All ones on an up step, the bits under `below` on a down step.
      const std::uint64_t keep = ((std::uint64_t{1} << below) - 1) | (down - 1);
      stack = (stack & keep) | std::uint64_t{1} << (k - lo);
      stack_mask_[k] = stack;
    }
    block_min_[b] = tour_key_[lo + static_cast<std::size_t>(
                                       std::countr_zero(stack))];
  }
  for (std::size_t j = 1; j < levels; ++j) {
    const std::size_t half = std::size_t{1} << (j - 1);
    const std::uint64_t* prev = &block_min_[(j - 1) * blocks_];
    std::uint64_t* row = &block_min_[j * blocks_];
    for (std::size_t b = 0; b + 2 * half <= blocks_; ++b) {
      row[b] = std::min(prev[b], prev[b + half]);
    }
  }
}

std::uint32_t TreeIndex::first(VertexId v) const {
  TREEAA_REQUIRE_MSG(v < first_.size(), "vertex id " << v
                                                     << " out of range (n = "
                                                     << first_.size() << ")");
  return first_[v];
}

std::uint64_t TreeIndex::min_key_in_block(std::uint32_t a,
                                          std::uint32_t b) const {
  const std::uint64_t window =
      stack_mask_[b] & (~std::uint64_t{0} << (a % kBlock));
  return tour_key_[b - b % kBlock +
                   static_cast<std::uint32_t>(std::countr_zero(window))];
}

std::uint64_t TreeIndex::min_key(std::uint32_t a, std::uint32_t b) const {
  const std::uint32_t block_a = a / kBlock;
  const std::uint32_t block_b = b / kBlock;
  if (block_a == block_b) return min_key_in_block(a, b);
  std::uint64_t best =
      std::min(min_key_in_block(a, block_a * kBlock + kBlock - 1),
               min_key_in_block(block_b * kBlock, b));
  if (block_a + 1 < block_b) {
    // Blocks strictly between: two overlapping power-of-two spans.
    const std::uint32_t lo = block_a + 1;
    const auto j = static_cast<std::size_t>(std::bit_width(block_b - lo)) - 1;
    const std::uint64_t* row = &block_min_[j * blocks_];
    best = std::min({best, row[lo], row[block_b - (1u << j)]});
  }
  return best;
}

std::uint64_t TreeIndex::lca_key(VertexId u, VertexId v) const {
  const std::uint32_t a = first(u);
  const std::uint32_t b = first(v);
  return a <= b ? min_key(a, b) : min_key(b, a);
}

std::uint32_t TreeIndex::depth(VertexId v) const {
  return key_depth(tour_key_[first(v)]);
}

VertexId TreeIndex::lca(VertexId u, VertexId v) const {
  return key_vertex(lca_key(u, v));
}

std::uint32_t TreeIndex::distance(VertexId u, VertexId v) const {
  return depth(u) + depth(v) - 2 * key_depth(lca_key(u, v));
}

VertexId TreeIndex::median(VertexId a, VertexId b, VertexId c) const {
  // Of the three pairwise LCAs two coincide and the third — the deepest —
  // is the median (it lies on all three pairwise paths).
  const std::uint64_t ab = lca_key(a, b);
  const std::uint64_t bc = lca_key(b, c);
  const std::uint64_t ac = lca_key(a, c);
  std::uint64_t m = ab;
  if (key_depth(bc) > key_depth(m)) m = bc;
  if (key_depth(ac) > key_depth(m)) m = ac;
  return key_vertex(m);
}

std::vector<VertexId> TreeIndex::root_path(VertexId tip) const {
  const std::size_t len = static_cast<std::size_t>(depth(tip)) + 1;
  std::vector<VertexId> path(len);
  VertexId v = tip;
  for (std::size_t i = len; i-- > 0;) {
    path[i] = v;
    v = tree_->parent(v);
  }
  return path;
}

bool TreeIndex::in_hull(std::span<const VertexId> s, VertexId w) const {
  TREEAA_REQUIRE_MSG(!s.empty(), "hull membership against an empty set");
  // <S> is the union of the paths from one fixed element to every other
  // (trees/paths.h), so membership reduces to |S| collinearity tests.
  // Reject bad ids up front: the scan below may return early.
  for (const VertexId v : s) (void)first(v);
  const VertexId anchor = s.front();
  const std::uint32_t dw = distance(anchor, w);
  for (const VertexId v : s) {
    if (dw + distance(w, v) == distance(anchor, v)) return true;
  }
  return false;
}

std::uint32_t TreeIndex::max_pairwise_distance(
    std::span<const VertexId> a, std::span<const VertexId> b) const {
  std::uint32_t best = 0;
  for (const VertexId u : a) {
    for (const VertexId v : b) {
      best = std::max(best, distance(u, v));
    }
  }
  return best;
}

}  // namespace treeaa::perf

#include "trees/euler.h"

#include "common/check.h"

namespace treeaa {

EulerList::EulerList(const LabeledTree& tree) {
  // No DFS runs. Lemma 2 fixes the list by the ordered rooted tree alone:
  // the subtree of v fills the contiguous block of 2·size(v) − 1 entries
  // starting at first(v), which opens with v, then holds each child's block
  // in id order, each followed by v again. So subtree sizes place every
  // entry directly.
  const std::size_t n = tree.n();
  const auto order = tree.bfs_order();

  // Subtree sizes, children before parents: one reverse pass over the BFS
  // order.
  std::vector<std::uint32_t> size(n, 1);
  for (std::size_t i = n; i-- > 1;) {
    size[tree.parent(order[i])] += size[order[i]];
  }

  // v is recorded once on entry and once after each child returns, so L(v)
  // has 1 + |children(v)| entries and the flat layout is known up front.
  occurrence_offsets_.resize(n + 1);
  occurrence_offsets_[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    occurrence_offsets_[v + 1] =
        occurrence_offsets_[v] + 1 + tree.children(v).size();
  }
  occurrence_positions_.resize(occurrence_offsets_[n]);
  list_.resize(2 * n - 1);

  // One forward pass: parents come first in the BFS order, so first(v) is
  // known by the time v lays out its own block. `pos` is 0-based; L(v)
  // stores 1-based indices, in ascending order as the block is filled.
  std::vector<std::size_t> first(n);
  first[tree.root()] = 0;
  for (const VertexId v : order) {
    std::size_t pos = first[v];
    std::size_t* occ = &occurrence_positions_[occurrence_offsets_[v]];
    list_[pos] = v;
    *occ++ = pos + 1;
    ++pos;
    for (const VertexId c : tree.children(v)) {
      first[c] = pos;
      pos += 2 * std::size_t{size[c]};
      list_[pos - 1] = v;
      *occ++ = pos;
    }
  }
}

VertexId EulerList::at(std::size_t i) const {
  TREEAA_REQUIRE_MSG(i >= 1 && i <= list_.size(),
                     "list index " << i << " out of [1, " << list_.size()
                                   << "]");
  return list_[i - 1];
}

std::span<const std::size_t> EulerList::occurrences(VertexId v) const {
  TREEAA_REQUIRE(v < occurrence_offsets_.size() - 1);
  return std::span<const std::size_t>(occurrence_positions_)
      .subspan(occurrence_offsets_[v],
               occurrence_offsets_[v + 1] - occurrence_offsets_[v]);
}

std::size_t EulerList::first_occurrence(VertexId v) const {
  return occurrences(v).front();
}

std::size_t EulerList::last_occurrence(VertexId v) const {
  return occurrences(v).back();
}

}  // namespace treeaa

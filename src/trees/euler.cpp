#include "trees/euler.h"

#include "common/check.h"

namespace treeaa {

EulerList::EulerList(const LabeledTree& tree) {
  const std::size_t n = tree.n();
  list_.reserve(2 * n - 1);

  // v is recorded once on entry and once after each child returns, so L(v)
  // has 1 + |children(v)| entries and the flat layout is known up front.
  occurrence_offsets_.resize(n + 1);
  occurrence_offsets_[0] = 0;
  for (VertexId v = 0; v < n; ++v) {
    occurrence_offsets_[v + 1] =
        occurrence_offsets_[v] + 1 + tree.children(v).size();
  }
  occurrence_positions_.resize(occurrence_offsets_[n]);

  // Iterative DFS; `next_child[v]` is the index of the next unvisited child
  // and therefore also the number of v's occurrences recorded after entry.
  std::vector<std::size_t> next_child(n, 0);
  std::vector<VertexId> stack;
  const auto record = [&](VertexId v) {
    list_.push_back(v);
    occurrence_positions_[occurrence_offsets_[v] + next_child[v]] =
        list_.size();
  };
  stack.push_back(tree.root());
  record(tree.root());

  while (!stack.empty()) {
    const VertexId v = stack.back();
    const auto kids = tree.children(v);
    if (next_child[v] < kids.size()) {
      const VertexId c = kids[next_child[v]++];
      stack.push_back(c);
      record(c);
    } else {
      stack.pop_back();
      if (!stack.empty()) record(stack.back());
    }
  }

  TREEAA_CHECK(list_.size() == 2 * n - 1);
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

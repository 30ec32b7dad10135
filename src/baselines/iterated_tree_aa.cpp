#include "baselines/iterated_tree_aa.h"

#include <cmath>

#include "common/check.h"
#include "trees/safe_area.h"

namespace treeaa::baselines {

Bytes encode_vertex(VertexId v) {
  ByteWriter w;
  w.varint(v);
  return std::move(w).take();
}

std::optional<VertexId> decode_vertex(const Bytes& b,
                                      std::size_t n_vertices) {
  try {
    ByteReader r(b);
    const std::uint64_t v = r.varint();
    r.expect_done();
    if (v >= n_vertices) return std::nullopt;
    return static_cast<VertexId>(v);
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

std::size_t IteratedTreeConfig::iterations(const LabeledTree& tree) const {
  const auto d = tree.diameter();
  if (d <= 1) return 0;
  return static_cast<std::size_t>(
             std::ceil(std::log2(static_cast<double>(d)))) +
         kSlackIterations;
}

IteratedTreeAAProcess::IteratedTreeAAProcess(const LabeledTree& tree,
                                             const IteratedTreeConfig& config,
                                             PartyId self, VertexId input)
    : tree_(tree),
      config_(config),
      iterations_(config.iterations(tree)),
      self_(self),
      value_(input) {
  TREEAA_REQUIRE(fault_bound_holds(config.n, config.t));
  TREEAA_REQUIRE(self < config.n);
  tree.require_vertex(input);
  history_.push_back(value_);
  if (iterations_ == 0) output_ = value_;
}

void IteratedTreeAAProcess::on_round_begin(Round, sim::Mailer& out) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  if (step == 0) {
    batch_.emplace(self_, config_.n, config_.t, encode_vertex(value_));
  }
  batch_->on_step_begin(step, out);
}

void IteratedTreeAAProcess::on_round_end(Round,
                                         std::span<const sim::Envelope> inbox) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  batch_->on_step_end(step, inbox);
  ++local_round_;
  if (step == gradecast::kRounds - 1) finish_iteration();
}

void IteratedTreeAAProcess::finish_iteration() {
  std::vector<VertexId> m;
  m.reserve(config_.n);
  for (const gradecast::GradedValue& gv : batch_->results()) {
    if (gv.grade < 1) continue;
    const auto v = decode_vertex(*gv.value, tree_.n());
    if (v.has_value()) m.push_back(*v);
  }
  // All honest vertices are present (honest gradecasts earn grade 2), so
  // |m| >= n - t >= 2t + 1 and the safe area is well-defined and non-empty.
  TREEAA_CHECK(m.size() >= 2 * config_.t + 1);
  const auto area = safe_area(tree_, m, config_.t);
  value_ = subtree_midpoint(tree_, area);
  history_.push_back(value_);
  if (history_.size() == iterations_ + 1) output_ = value_;
  batch_.reset();
}

}  // namespace treeaa::baselines

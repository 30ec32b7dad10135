#include "core/tree_aa.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/closest_int.h"

namespace treeaa::core {

namespace {

PathsFinderOptions finder_options(const TreeAAOptions& opts) {
  return PathsFinderOptions{opts.update, opts.mode, opts.engine};
}

/// The spread bound for the projection phase: any root-anchored path has
/// length at most D(T), so the honest index spread is at most D(T).
double projection_range(const LabeledTree& tree) {
  return static_cast<double>(tree.diameter());
}

}  // namespace

realaa::Config projection_config(const LabeledTree& tree, std::size_t n,
                                 std::size_t t, const TreeAAOptions& opts) {
  realaa::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = 1.0;
  // Honest phase-2 inputs are positions on root-anchored paths that differ
  // in at most one terminal edge (Lemma 4); any root-anchored path has
  // length at most D(T), so the honest index spread is at most D(T).
  cfg.known_range = projection_range(tree);
  cfg.update = opts.update;
  cfg.mode = opts.mode;
  return cfg;
}

std::size_t tree_aa_rounds(const LabeledTree& tree, std::size_t n,
                           std::size_t t, const TreeAAOptions& opts) {
  const auto engine = opts.engine_config();
  return real_engine_rounds(engine, n, t, paths_finder_range(tree), 1.0) +
         real_engine_rounds(engine, n, t, projection_range(tree), 1.0);
}

TreeAAProcess::TreeAAProcess(const perf::TreeIndex& index, std::size_t n,
                             std::size_t t, PartyId self, VertexId input,
                             TreeAAOptions opts)
    : index_(index),
      n_(n),
      t_(t),
      self_(self),
      input_(input),
      opts_(opts),
      finder_(index, n, t, self, input, finder_options(opts)),
      rounds_phase1_(finder_.rounds()),
      rounds_total_(tree_aa_rounds(index.tree(), n, t, opts)) {
  if (rounds_total_ == 0) {
    // Single-vertex tree (or D(T) = 0): trivial instance.
    output_ = input_;
  }
}

void TreeAAProcess::on_round_begin(Round, sim::Mailer& out) {
  if (output_.has_value()) return;
  const Round r = local_round_ + 1;
  if (r <= rounds_phase1_) {
    finder_.on_round_begin(r, out);
  } else {
    TREEAA_CHECK(projector_ != nullptr);
    projector_->on_round_begin(static_cast<Round>(r - rounds_phase1_), out);
  }
}

void TreeAAProcess::on_round_end(Round, std::span<const sim::Envelope> inbox) {
  if (output_.has_value()) return;
  const Round r = ++local_round_;
  if (r <= rounds_phase1_) {
    finder_.on_round_end(r, inbox);
    // Line 4 of TreeAA: even parties whose inner RealAA finished early wait
    // until round R_PathsFinder ends, then everyone starts phase 2 together.
    if (r == rounds_phase1_) start_phase2();
  } else {
    projector_->on_round_end(static_cast<Round>(r - rounds_phase1_), inbox);
    if (projector_->output().has_value()) finish(*projector_->output());
  }
}

void TreeAAProcess::start_phase2() {
  TREEAA_CHECK_MSG(finder_.path().has_value(),
                   "PathsFinder must be complete at the phase boundary");
  const auto& path = *finder_.path();
  // The projection is one O(1) median query, and the 1-based position of a
  // vertex on a root-anchored path is depth + 1 — no path scan.
  const VertexId proj =
      index_.project_onto_path(path.front(), path.back(), input_);
  const std::size_t i = index_.index_on_root_path(proj);
  projector_ = make_real_engine(opts_.engine_config(), n_, t_,
                                projection_range(index_.tree()), 1.0, self_,
                                static_cast<double>(i));
  if (projector_->output().has_value()) finish(*projector_->output());
}

VertexId resolve_output_vertex(std::span<const VertexId> path, double j) {
  TREEAA_REQUIRE(!path.empty());
  const std::int64_t k = static_cast<std::int64_t>(path.size());
  std::int64_t idx = closest_int(j);
  TREEAA_CHECK_MSG(idx >= 1, "RealAA output " << j
                                              << " below the index range");
  // The Figure 5 case: this party holds the shorter of the two honest
  // paths and closestInt(j) points one past its end; output v_k.
  if (idx > k) idx = k;
  return path[static_cast<std::size_t>(idx - 1)];
}

void TreeAAProcess::finish(double j) {
  const auto& path = *finder_.path();
  clamped_ = closest_int(j) > static_cast<std::int64_t>(path.size());
  output_ = resolve_output_vertex(path, j);
}

VertexId TreeAAProcess::current_estimate() const {
  if (output_.has_value()) return *output_;
  if (projector_ != nullptr && finder_.path().has_value()) {
    const auto& path = *finder_.path();
    const double j = projector_->current_value();
    if (!std::isnan(j)) {
      const std::int64_t idx = std::clamp<std::int64_t>(
          closest_int(j), 1, static_cast<std::int64_t>(path.size()));
      return path[static_cast<std::size_t>(idx - 1)];
    }
  }
  return finder_.current_vertex();
}

std::size_t TreeAAProcess::current_detected_faulty() const {
  return projector_ != nullptr ? projector_->detected_faulty()
                               : finder_.detected_faulty();
}

TreeAAProcess::Telemetry TreeAAProcess::telemetry() const {
  Telemetry t;
  t.phase1_rounds = rounds_phase1_;
  t.phase2_rounds = rounds_total_ - rounds_phase1_;
  if (finder_.path().has_value()) t.path_length = finder_.path()->size();
  t.clamped = clamped_;
  if (projector_ != nullptr) {
    t.detected_faulty = projector_->detected_faulty();
  }
  return t;
}

}  // namespace treeaa::core

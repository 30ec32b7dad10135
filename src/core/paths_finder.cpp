#include "core/paths_finder.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"
#include "core/closest_int.h"

namespace treeaa::core {

double paths_finder_range(const LabeledTree& tree) {
  // Honest inputs are indices in [1, |L|], so their spread is at most
  // |L| - 1 = 2|V(T)| - 2 < 2|V(T)| (the bound Lemma 4 uses).
  return static_cast<double>(2 * tree.n() - 2);
}

realaa::Config paths_finder_config(const LabeledTree& tree, std::size_t n,
                                   std::size_t t,
                                   const PathsFinderOptions& opts) {
  realaa::Config cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.eps = 1.0;
  cfg.known_range = paths_finder_range(tree);
  cfg.update = opts.update;
  cfg.mode = opts.mode;
  return cfg;
}

namespace {

/// The Euler index this party feeds into RealAA. Validates `input` first:
/// the member-init list reads the Euler list through it.
std::size_t chosen_index(const perf::TreeIndex& index, VertexId input,
                         EulerIndexChoice choice) {
  index.tree().require_vertex(input);
  return choice == EulerIndexChoice::kMinOccurrence
             ? index.euler().first_occurrence(input)
             : index.euler().last_occurrence(input);
}

}  // namespace

PathsFinderProcess::PathsFinderProcess(const perf::TreeIndex& index,
                                       std::size_t n, std::size_t t,
                                       PartyId self, VertexId input,
                                       PathsFinderOptions opts)
    : index_(index),
      real_(make_real_engine(
          opts.engine_config(), n, t, paths_finder_range(index.tree()), 1.0,
          self,
          static_cast<double>(
              chosen_index(index, input, opts.index_choice)))) {
  if (real_->output().has_value()) {
    // 0-iteration configuration (single-vertex tree): the path is the root.
    path_ = index_.root_path(input);
  }
}

VertexId PathsFinderProcess::current_vertex() const {
  const double j = current_index();
  if (std::isnan(j)) return index_.root();
  const EulerList& euler = index_.euler();
  const std::int64_t idx = std::clamp<std::int64_t>(
      closest_int(j), 1, static_cast<std::int64_t>(euler.size()));
  return euler.at(static_cast<std::size_t>(idx));
}

void PathsFinderProcess::on_round_begin(Round r, sim::Mailer& out) {
  real_->on_round_begin(r, out);
}

void PathsFinderProcess::on_round_end(Round r,
                                      std::span<const sim::Envelope> inbox) {
  real_->on_round_end(r, inbox);
  if (path_.has_value() || !real_->output().has_value()) return;
  const EulerList& euler = index_.euler();
  const std::int64_t idx = closest_int(*real_->output());
  TREEAA_CHECK_MSG(
      idx >= 1 && idx <= static_cast<std::int64_t>(euler.size()),
      "RealAA output " << *real_->output()
                       << " outside the Euler list range");
  path_ = index_.root_path(euler.at(static_cast<std::size_t>(idx)));
}

}  // namespace treeaa::core

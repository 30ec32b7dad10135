// PathsFinder (paper §6): approximate agreement on a root-anchored path
// that intersects the honest inputs' convex hull.
//
// Exact Byzantine Agreement on such a path would cost t + 1 ∈ O(n) rounds;
// PathsFinder instead gets *approximate* consistency in
// R_RealAA(2|V(T)|, 1) rounds, which suffices for TreeAA:
//
//   1. Every party locally computes L := ListConstruction(T, v_root) — the
//      Euler list — identically (the construction is deterministic).
//   2. Every party joins RealAA(1) with input i := min L(v_IN) and obtains
//      j; the values closestInt(j) are 1-close integers within the range of
//      honest indices (Remarks 1 and 2).
//   3. It returns P := P(v_root, L_closestInt(j)).
//
// Lemma 3 shows every such path intersects the honest inputs' convex hull
// (the LCA of the extreme honest-indexed vertices is an ancestor of every
// L_i in the index window); Lemma 2's adjacency property plus 1-closeness
// of the indices makes any two honest parties' paths equal or differing in
// exactly one terminal edge (Lemma 4).
#pragma once

#include <memory>
#include <optional>
#include <vector>

#include "common/types.h"
#include "core/real_engine.h"
#include "perf/tree_index.h"
#include "realaa/real_aa.h"
#include "sim/process.h"
#include "trees/labeled_tree.h"

namespace treeaa::core {

/// Which occurrence of the input vertex in the Euler list a party feeds
/// into RealAA. The paper fixes min L(v_IN) "without loss of generality"
/// (§6) — Lemma 3 only needs indices inside the honest window, so any
/// choice works, and different honest parties may even choose differently.
/// The tests exercise that independence.
enum class EulerIndexChoice {
  kMinOccurrence,  // the paper's WLOG choice (default)
  kMaxOccurrence,
};

struct PathsFinderOptions {
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  /// Which real-valued AA engine runs underneath (paper §7: the reduction
  /// is engine-independent).
  RealEngineKind engine = RealEngineKind::kGradecastBdh;
  EulerIndexChoice index_choice = EulerIndexChoice::kMinOccurrence;

  [[nodiscard]] RealEngineConfig engine_config() const {
    return RealEngineConfig{engine, update, mode};
  }
};

/// The BDH RealAA configuration PathsFinder runs on the Euler list of
/// `tree` (as used by the default engine and by the gradecast-aware
/// adversaries). Public knowledge: every party derives the identical
/// configuration.
[[nodiscard]] realaa::Config paths_finder_config(const LabeledTree& tree,
                                                 std::size_t n, std::size_t t,
                                                 const PathsFinderOptions& opts);

/// The spread bound PathsFinder configures its engine with: |L| - 1.
[[nodiscard]] double paths_finder_range(const LabeledTree& tree);

/// One party's PathsFinder instance. Local rounds 1..rounds(). The caller
/// provides a TreeIndex so that the (identical, deterministic) Euler list is
/// built once per experiment rather than once per party, and the obtained
/// path is materialised through the index's root_path. `index` must outlive
/// the process.
class PathsFinderProcess final : public sim::Process {
 public:
  PathsFinderProcess(const perf::TreeIndex& index, std::size_t n,
                     std::size_t t, PartyId self, VertexId input,
                     PathsFinderOptions opts = {});

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  /// R_PathsFinder: rounds this configuration takes (Lemma 4).
  [[nodiscard]] std::size_t rounds() const { return real_->rounds(); }

  /// The path P(v_root, L_closestInt(j)), from the root to the obtained
  /// vertex; engaged once rounds() rounds have completed.
  [[nodiscard]] const std::optional<std::vector<VertexId>>& path() const {
    return path_;
  }

  // --- Probe accessors (telemetry only; the protocol never reads them) ----

  /// The inner engine's current Euler-index estimate.
  [[nodiscard]] double current_index() const {
    return real_->current_value();
  }
  /// current_index() resolved to a vertex (clamped into the Euler list).
  [[nodiscard]] VertexId current_vertex() const;
  /// Byzantine parties the inner engine has proven so far.
  [[nodiscard]] std::size_t detected_faulty() const {
    return real_->detected_faulty();
  }

 private:
  const perf::TreeIndex& index_;
  std::unique_ptr<realaa::RealAgreement> real_;
  std::optional<std::vector<VertexId>> path_;
};

}  // namespace treeaa::core

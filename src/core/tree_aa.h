// TreeAA (paper §7) — the main protocol: deterministic synchronous
// Approximate Agreement on an arbitrary labeled tree T, resilient to
// t < n/3 Byzantine parties, in O(log|V(T)| / log log|V(T)|) rounds
// (Theorem 4).
//
// Phase 1 (rounds 1 .. R_PathsFinder):
//   run PathsFinder to obtain a root-anchored path P intersecting the
//   honest inputs' convex hull; all honest paths are equal or differ in one
//   terminal edge (Lemma 4). Parties that finish the inner RealAA early
//   still *wait out* the full fixed budget (the paper's line 4), so phase 2
//   starts simultaneously everywhere.
//
// Phase 2 (the next R_RealAA(D(T), 1) rounds):
//   each party joins RealAA(1) with the index i of proj_P(v_IN) on its own
//   path P = (v_1 .. v_k) and obtains j. It outputs v_closestInt(j) —
//   except that closestInt(j) may be k + 1 when this party holds the
//   shorter of the two honest paths (Figure 5); v_{k+1} is then ambiguous
//   (v_k may have several children), so the party outputs v_k. The proof of
//   Theorem 4 shows all honest outputs land on {v_{k*}, v_{k*+1}} in that
//   case, preserving both Validity and 1-Agreement.
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/types.h"
#include "core/paths_finder.h"
#include "perf/tree_index.h"
#include "realaa/real_aa.h"
#include "sim/process.h"
#include "trees/labeled_tree.h"

namespace treeaa::core {

struct TreeAAOptions {
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  /// Which real-valued AA engine runs underneath both phases (paper §7:
  /// the reduction works with any engine achieving AA on [1, 2|V(T)|]).
  RealEngineKind engine = RealEngineKind::kGradecastBdh;

  [[nodiscard]] RealEngineConfig engine_config() const {
    return RealEngineConfig{engine, update, mode};
  }
};

/// The RealAA configuration of phase 2. Public knowledge.
[[nodiscard]] realaa::Config projection_config(const LabeledTree& tree,
                                               std::size_t n, std::size_t t,
                                               const TreeAAOptions& opts);

/// Total rounds TreeAA takes on `tree` — R_PathsFinder + R_RealAA(D(T), 1).
/// Identical for every party; computable from public information only.
[[nodiscard]] std::size_t tree_aa_rounds(const LabeledTree& tree,
                                         std::size_t n, std::size_t t,
                                         const TreeAAOptions& opts = {});

/// Line 6 of TreeAA: maps the phase-2 RealAA output j onto this party's
/// path P = (v_1 .. v_k). Returns v_closestInt(j), except that
/// closestInt(j) = k + 1 — legal when this party holds the shorter of the
/// two honest paths (Figure 5) — is clamped to v_k, since v_{k+1} would be
/// ambiguous when v_k has several children. Requires closestInt(j) >= 1
/// (guaranteed by RealAA Validity: honest indices start at 1).
[[nodiscard]] VertexId resolve_output_vertex(std::span<const VertexId> path,
                                             double j);

/// One party's TreeAA instance. Local rounds 1..tree_aa_rounds(...). The
/// phase boundary's projection and path-index computations are O(1) queries
/// on the shared `index`, which must outlive the process.
class TreeAAProcess final : public sim::Process {
 public:
  TreeAAProcess(const perf::TreeIndex& index, std::size_t n, std::size_t t,
                PartyId self, VertexId input, TreeAAOptions opts = {});

  void on_round_begin(Round r, sim::Mailer& out) override;
  void on_round_end(Round r, std::span<const sim::Envelope> inbox) override;

  /// The output vertex; engaged once all rounds have completed.
  [[nodiscard]] std::optional<VertexId> output() const { return output_; }

  /// The path this party obtained from PathsFinder (for inspection).
  [[nodiscard]] const std::optional<std::vector<VertexId>>& path() const {
    return finder_.path();
  }

  [[nodiscard]] std::size_t rounds() const { return rounds_total_; }

  /// Per-party execution telemetry (valid once the run completes).
  struct Telemetry {
    std::size_t phase1_rounds = 0;
    std::size_t phase2_rounds = 0;
    std::size_t path_length = 0;   // |V(P)| of this party's path
    bool clamped = false;          // the Figure-5 clamp fired (idx > k)
    std::size_t detected_faulty = 0;  // Byzantine parties proven in phase 2
  };

  [[nodiscard]] Telemetry telemetry() const;

  // --- Probe accessors (telemetry only; the protocol never reads them) ----

  /// This party's current output estimate: the input at round 0, the
  /// Euler-list resolution of the phase-1 index mid-phase-1, the path
  /// resolution of the phase-2 index mid-phase-2, the output at the end.
  /// The per-round convergence probes compute honest hull sizes and
  /// diameters from these.
  [[nodiscard]] VertexId current_estimate() const;
  /// Byzantine parties proven so far by whichever inner engine is active.
  [[nodiscard]] std::size_t current_detected_faulty() const;

 private:
  void start_phase2();
  void finish(double j);

  const perf::TreeIndex& index_;
  std::size_t n_;
  std::size_t t_;
  PartyId self_;
  VertexId input_;
  TreeAAOptions opts_;

  PathsFinderProcess finder_;
  std::size_t rounds_phase1_;
  std::size_t rounds_total_;
  Round local_round_ = 0;
  std::unique_ptr<realaa::RealAgreement> projector_;  // phase 2
  std::optional<VertexId> output_;
  bool clamped_ = false;
};

}  // namespace treeaa::core

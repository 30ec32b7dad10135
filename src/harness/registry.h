// The protocol registry — the repository's single protocol-dispatch table.
//
// Every front end that accepts a protocol or adversary by name (the CLI,
// the sweep engine, the hunt, the serve daemon, the socket-net deployment
// tool) resolves it here, and every one of them runs through run_protocol():
// one RunSpec describes any run, one RunOutcome carries any result. The
// typed convenience wrappers in runner.h (run_real_aa, run_paths_finder,
// ...) are thin adapters over this table, so adding a protocol means adding
// one registry entry — not editing three name switches.
//
// The registry is also the one place that knows three facts about a spec,
// so no front end derives them itself:
//
//   * round_budget()  — the rounds one run of the spec executes (a column
//                       of the dispatch table);
//   * split_target()  — the RealAA instance the split attacks aim at;
//   * check_outcome() — the AA verdict of a finished run (Definition 2:
//                       validity plus 1-agreement, or eps-agreement on R).
//
// The registry also centralises the adversary vocabulary. AdversaryPlan
// separates *what randomness the caller drew* (victims, fuzz seed — whose
// draw order is part of each tool's determinism contract) from *how the
// adversary object is built* (make_adversary), so the sweep engine and the
// CLI construct byte-identical adversaries without duplicating the switch.
// AdversaryPlan is the closed, named-strategy subset of the general surface:
// harness/adversary_spec.h generalises it into the serializable, searchable
// AdversarySpec (JSON wire form, parameter-space sampling and mutation), and
// make_adversary(AdversaryPlan) routes through that spec, so the five named
// kinds are fixed points of the spec space — not a parallel code path.
//
// Each synchronous entry builds its engine and processes and hands the
// rounds to obs::drive_rounds (obs/probe.h), the one observed-run driver;
// TreeAA and BlockAA share core::detail::run_tree_aa_over on top of it.
//
// validate()/validate_axes() are the one shared precondition checker: every
// front end (CLI, sweep expansion, serve admission) maps the typed SpecError
// codes to its own wire strings instead of re-implementing the checks.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "async/engine.h"
#include "common/types.h"
#include "core/paths_finder.h"
#include "core/real_engine.h"
#include "graphs/block_index.h"
#include "obs/report.h"
#include "perf/tree_index.h"
#include "realaa/real_aa.h"
#include "sim/adversary.h"
#include "sim/stats.h"
#include "trees/labeled_tree.h"

namespace treeaa::harness {

/// Every protocol the repository can run. The first four enumerate in the
/// sweep grid's historical order, so their values (and therefore sweep
/// reports and RNG fork positions) are unchanged from the days the sweep
/// engine kept its own enum.
enum class ProtocolKind {
  kTreeAA,           // core::run_tree_aa (the paper's main protocol)
  kIteratedTreeAA,   // NR-style iterate-on-the-tree baseline
  kRealAA,           // BDH engine on R
  kIteratedRealAA,   // DLPSW halving baseline
  kPathAA,           // warm-up protocol on labeled paths (paper §4)
  kPathsFinder,      // phase 1 alone (paper §6)
  kAsyncTreeAA,      // asynchronous NR baseline in its native model
  kBlockAA,          // graphs::run_block_aa (arXiv:2502.05591 block graphs)
};

/// Byzantine strategies the tools know by name. none/silent/fuzz apply
/// everywhere; the split attacks target the gradecast distribution
/// mechanism (split1 additionally needs RealAA's iteration schedule).
enum class AdversaryKind { kNone, kSilent, kFuzz, kSplit, kSplit1 };

[[nodiscard]] const char* protocol_name(ProtocolKind p);
[[nodiscard]] std::optional<ProtocolKind> protocol_from_name(
    std::string_view name);
[[nodiscard]] const char* adversary_name(AdversaryKind a);
[[nodiscard]] std::optional<AdversaryKind> adversary_from_name(
    std::string_view name);
[[nodiscard]] const char* scheduler_name(async::SchedulerKind s);
[[nodiscard]] std::optional<async::SchedulerKind> scheduler_from_name(
    std::string_view name);

/// All registered protocols, in registry order.
[[nodiscard]] std::span<const ProtocolKind> all_protocols();
/// All named adversaries, in declaration order.
[[nodiscard]] std::span<const AdversaryKind> all_adversaries();

/// Vertex-valued protocols take a tree + vertex inputs; real-valued ones
/// take eps/known_range + real inputs.
[[nodiscard]] bool is_vertex_protocol(ProtocolKind p);
/// Graph-valued protocols take a BlockIndex + vertex inputs (vertices of
/// the *graph*, not of a tree).
[[nodiscard]] bool is_graph_protocol(ProtocolKind p);
/// Protocols available on the sweep grid.
[[nodiscard]] bool is_sweep_protocol(ProtocolKind p);
/// Does this adversary make sense against this protocol?
[[nodiscard]] bool adversary_applies(ProtocolKind p, AdversaryKind a);

/// The one default seed for every harness-level RNG knob. Contract: a
/// caller that wants reproducible randomness either passes a seed through
/// explicitly (the tools' --seed flag, a sweep spec's "seed") or gets this
/// value; no harness field silently defaults to a *different* seed.
/// Historically AsyncOptions::seed defaulted to 1 while
/// AdversaryPlan::fuzz_seed defaulted to 0 — an inconsistency with no
/// behavioural weight (every caller that builds a fuzz adversary draws and
/// assigns fuzz_seed itself; tests/harness/registry_test.cpp pins the draw
/// order), now unified on 1.
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Scheduling knobs of the asynchronous model, folded into one struct
/// (previously three positional parameters of run_async_tree_aa).
struct AsyncOptions {
  std::vector<PartyId> corrupt;  // silent-from-start parties
  async::SchedulerKind scheduler = async::SchedulerKind::kRandom;
  /// Seeds the async scheduler's delivery order. See kDefaultSeed.
  std::uint64_t seed = kDefaultSeed;
};

/// How to build an adversary, minus the randomness: the caller draws
/// victims / fuzz seeds from its own RNG streams (their draw order is part
/// of each tool's determinism contract) and make_adversary turns the plan
/// into the object. kNone yields nullptr.
struct AdversaryPlan {
  AdversaryKind kind = AdversaryKind::kNone;
  std::vector<PartyId> victims;
  /// Seeds the fuzz adversary's payload stream. Callers that draw their own
  /// randomness overwrite this; the default only matters for hand-built
  /// plans. See kDefaultSeed.
  std::uint64_t fuzz_seed = kDefaultSeed;
  std::size_t fuzz_min = 16;
  std::size_t fuzz_max = 48;
  /// The inner RealAA configuration the split attack targets (ignored by
  /// the other kinds).
  realaa::Config split_config;
};

[[nodiscard]] std::unique_ptr<sim::Adversary> make_adversary(
    const AdversaryPlan& plan);

/// One uniform description of a protocol run. Fields outside the selected
/// protocol's family are ignored: vertex protocols read tree +
/// vertex_inputs, real protocols read eps/known_range + real_inputs, the
/// async protocol additionally reads async_opts/async_adversary.
struct RunSpec {
  ProtocolKind protocol = ProtocolKind::kTreeAA;
  std::size_t n = 0;
  std::size_t t = 0;

  // Intra-run worker threads for the synchronous engine (1 = serial, 0 =
  // one per hardware thread). Any value yields byte-identical results and
  // reports — threads are a wall-clock knob only, so they are never
  // recorded in run reports. Ignored by the async protocol, whose engine
  // has its own (single-threaded) scheduler.
  std::size_t threads = 1;

  // Vertex protocols: the input-space tree (must outlive the call) and one
  // input vertex per party.
  const LabeledTree* tree = nullptr;
  std::vector<VertexId> vertex_inputs;
  // Optional index of `tree` (must outlive the call). TreeAA and
  // PathsFinder run over it and check_outcome judges every vertex protocol
  // through it, so a caller that sets it builds one index per run instead
  // of one per use.
  const perf::TreeIndex* tree_index = nullptr;

  // Graph protocols: the input-space block graph's index (must outlive the
  // call); vertex_inputs then holds graph vertices.
  const graphs::BlockIndex* block_index = nullptr;

  // Real protocols.
  std::vector<double> real_inputs;
  double eps = 1.0;
  double known_range = 0.0;

  // Inner-engine knobs (where the protocol has them).
  realaa::UpdateRule update = realaa::UpdateRule::kTrimmedMean;
  realaa::IterationMode mode = realaa::IterationMode::kPaperSufficient;
  core::RealEngineKind engine = core::RealEngineKind::kGradecastBdh;
  core::EulerIndexChoice index_choice = core::EulerIndexChoice::kMinOccurrence;

  // Async model only.
  AsyncOptions async_opts;

  // Faults and observability.
  std::unique_ptr<sim::Adversary> adversary;              // sync protocols
  std::unique_ptr<async::AsyncAdversary> async_adversary; // async protocol
  const obs::Hooks* hooks = nullptr;
};

/// One uniform result. Per-party vectors are disengaged/empty for corrupt
/// parties; which value family engages follows the protocol's family.
struct RunOutcome {
  // Vertex protocols.
  std::vector<std::optional<VertexId>> vertex_outputs;
  // Real protocols (histories: input first, one entry per iteration).
  std::vector<std::optional<double>> real_outputs;
  std::vector<std::vector<double>> real_histories;
  // PathsFinder.
  std::vector<std::optional<std::vector<VertexId>>> paths;

  std::vector<PartyId> corrupt;
  Round rounds = 0;              // 0 in the async model
  sim::TrafficStats traffic;     // empty in the async model
  std::uint64_t messages = 0;    // async model only
  std::uint64_t deliveries = 0;  // async model only

  // TreeAA and BlockAA telemetry, as in core::RunResult.
  bool path_split = false;
  std::size_t clamp_count = 0;
  std::size_t max_detected_faulty = 0;

  [[nodiscard]] std::vector<VertexId> honest_vertex_outputs() const;
  [[nodiscard]] std::vector<double> honest_real_outputs() const;
};

/// Typed precondition failures shared by every front end. The codes are the
/// contract; the detail string is a human-readable default that tools may
/// replace with their own wording (serve keeps its exact wire strings by
/// mapping codes).
enum class SpecError {
  kFaultBound,            // n == 0 or n <= 3t
  kMissingTree,           // vertex protocol without a tree
  kMissingIndex,          // graph protocol without a block index
  kInputCountMismatch,    // input vector size != n
  kInputOutOfRange,       // a vertex input outside the tree/graph
  kRealParams,            // eps not finite/positive or known_range < 0
  kCorruptBound,          // async corrupt list larger than t
  kAdversaryInapplicable, // named adversary does not apply to the protocol
};

[[nodiscard]] const char* spec_error_name(SpecError e);

/// One validation failure: the typed code plus a ready-to-print reason.
struct SpecIssue {
  SpecError error;
  std::string detail;
};

/// Axis-level validation, usable before trees/inputs are materialised (sweep
/// expansion, serve admission): n/t fault bound and adversary applicability.
/// nullopt = valid.
[[nodiscard]] std::optional<SpecIssue> validate_axes(
    ProtocolKind protocol, std::size_t n, std::size_t t,
    std::optional<AdversaryKind> adversary = std::nullopt);

/// Full-spec validation: everything validate_axes checks plus topology
/// presence, input counts/ranges and real-protocol parameters. Returns every
/// failure found (empty = run_protocol's preconditions hold). The optional
/// adversary kind is checked for applicability — RunSpec itself only carries
/// the built adversary object, whose kind is erased.
[[nodiscard]] std::vector<SpecIssue> validate(
    const RunSpec& spec,
    std::optional<AdversaryKind> adversary = std::nullopt);

/// Runs `spec` through the registry's dispatch table. Consumes the spec's
/// adversary objects only, so the caller can judge the same spec afterwards
/// with check_outcome().
[[nodiscard]] RunOutcome run_protocol(RunSpec& spec);

/// The rounds one run of `spec` executes (0 in the async model). Public
/// knowledge: a pure function of the protocol, n, t, the input space and
/// the inner-engine knobs. Requires the spec's topology.
[[nodiscard]] std::size_t round_budget(const RunSpec& spec);

/// The inner RealAA instance the split attacks target: PathsFinder's over
/// the tree (TreeAA), the same over the agreement tree A(G) (BlockAA), or
/// the protocol's own configuration (RealAA). nullopt for every protocol
/// without a gradecast-distributed RealAA instance to split.
[[nodiscard]] std::optional<realaa::Config> split_target(const RunSpec& spec);

/// The AA verdict of one run over its honest parties (those with an
/// output). `spread` is the max pairwise output distance (tree or graph
/// metric) or, on R, max - min of the outputs.
struct Verdict {
  bool valid = false;      // every output in the honest inputs' hull
  bool agreement = false;  // 1-agreement, or spread <= eps on R
  double spread = 0.0;

  [[nodiscard]] bool ok() const { return valid && agreement; }
};

/// Judges `outcome` against the spec that produced it: core::check_agreement
/// for the tree protocols (sync and async), graphs::check_agreement for
/// block graphs, the interval check with spread <= eps for real protocols.
/// paths_finder (phase 1 alone) has no output vertex: valid means every
/// honest path is non-empty and starts at the root, agreement means the
/// path tips are at most one edge apart (Lemma 4). An empty honest set is
/// neither valid nor in agreement.
[[nodiscard]] Verdict check_outcome(const RunSpec& spec,
                                    const RunOutcome& outcome);

}  // namespace treeaa::harness

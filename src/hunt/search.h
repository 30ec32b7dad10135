// Coverage-guided evolutionary search over adversary space.
//
// run_hunt() evolves a population of AdversarySpec points against one
// MaterializedScenario, maximising an Objective (observed rounds-to-ε,
// final honest spread, or the margin over Fekete's lower bound).
//
// Determinism contract (same as the sweep engine): the result is a pure
// function of (scenario, options) — byte-identical at any --threads value.
// Candidate generation mutates one Rng and therefore runs serially;
// evaluation is a pure function of (scenario, spec) and fans out through
// perf::WorkerPool::for_each, each slot writing only its own index;
// selection, coverage accounting and corpus updates run serially in
// population order.
// Ties break on the candidate's canonical JSON, never on scheduling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/adversary_spec.h"
#include "hunt/scenario.h"

namespace treeaa::hunt {

/// What the search maximises. All three are "bigger = worse for the
/// protocol": the hunt looks for the strongest adversary, not the best run.
enum class Objective {
  /// First round with honest diameter <= target (round_budget + 1 when the
  /// run never gets there) — the paper's round-complexity currency.
  kRoundsToEps,
  /// Honest output spread after the full budget.
  kFinalSpread,
  /// rounds_to_eps minus Fekete's lower bound for the scenario's (D, eps):
  /// how far the adversary pushes the protocol past the proven floor.
  kLedgerMargin,
};

[[nodiscard]] const char* objective_name(Objective o);
[[nodiscard]] std::optional<Objective> objective_from_name(
    std::string_view name);

/// One candidate's measured run. Deterministic given (scenario, spec).
struct Evaluation {
  bool ok = false;
  std::string error;  // set when ok == false (the run threw)

  Round rounds = 0;          // rounds actually run (the budget)
  Round rounds_to_eps = 0;   // see Objective::kRoundsToEps
  double final_spread = 0.0; // honest output spread (tree distance / reals)
  bool validity = false;
  bool agreement = false;
  /// rounds_to_eps - fekete_lower_rounds (ledger margin; 0 when the ledger
  /// does not apply to the protocol).
  double ledger_margin = 0.0;
  /// Ledger envelope/non-expansion violations observed in the run.
  std::size_t ledger_violations = 0;
};

/// The objective's scalar for one evaluation; failed runs score -infinity
/// (the search never selects them, but they still appear in coverage).
[[nodiscard]] double objective_score(const Evaluation& e, Objective o);

/// Runs one spec against the scenario. Pure: same arguments, same result —
/// the inner engine always runs serially (threads=1), parallelism belongs
/// to the caller's candidate fan-out.
[[nodiscard]] Evaluation evaluate_spec(const MaterializedScenario& scenario,
                                       const harness::AdversarySpec& spec);

struct HuntOptions {
  Objective objective = Objective::kRoundsToEps;
  std::size_t population = 16;
  std::size_t generations = 6;
  /// Top-scoring unique candidates copied unchanged into the next
  /// generation.
  std::size_t elites = 4;
  /// Corpus cap: the best candidate per coverage bucket, highest scores
  /// first.
  std::size_t corpus_max = 16;
  std::uint64_t seed = harness::kDefaultSeed;
  /// Worker threads for candidate evaluation (0 = hardware). Results are
  /// byte-identical at any value.
  std::size_t threads = 1;
  bool allow_crashes = true;
  /// Kinds the search may draw; empty = every kind applicable to the
  /// scenario's protocol.
  std::vector<harness::AdversaryKind> kinds;
};

struct Candidate {
  harness::AdversarySpec spec;
  /// Canonical wire form — the dedup key and the deterministic tiebreaker.
  std::string spec_json;
  Evaluation eval;
  double score = 0.0;
  /// Generation the candidate first appeared in.
  std::size_t generation = 0;
};

/// Per-generation progress, echoed into the hunt report.
struct GenerationStats {
  std::size_t generation = 0;
  std::size_t evaluated = 0;  // fresh engine runs this generation
  std::size_t cached = 0;     // population slots served from the dedup cache
  double best_score = 0.0;    // best score seen so far (cumulative)
  double mean_score = 0.0;    // mean over this generation's scored slots
  std::size_t new_buckets = 0;
  std::string best_json;      // spec of the cumulative best
};

struct HuntResult {
  Candidate best;
  /// Best candidate per coverage bucket, score-descending (JSON ascending on
  /// ties), capped at options.corpus_max.
  std::vector<Candidate> corpus;
  std::vector<GenerationStats> generations;
  /// (bucket key, candidates that landed in it), key-ascending.
  std::vector<std::pair<std::string, std::size_t>> coverage;
  /// Named fixed-point baselines (the library's own strategies), evaluated
  /// in generation 0: (adversary kind name, score).
  std::vector<std::pair<std::string, double>> baselines;
  std::size_t evaluations = 0;  // unique specs run through the engine
  std::size_t duplicates = 0;   // population slots deduped away
};

/// The coverage bucket a spec lands in: kind, victim count, schedule shape,
/// crash count, fuzz band. Coarse by design — buckets are niches to keep
/// diverse worst cases in, not a fitness dimension.
[[nodiscard]] std::string coverage_bucket(const harness::AdversarySpec& spec);

/// Runs the search. Throws std::invalid_argument on unusable options
/// (population 0, no applicable kinds).
[[nodiscard]] HuntResult run_hunt(const MaterializedScenario& scenario,
                                  const HuntOptions& options);

}  // namespace treeaa::hunt

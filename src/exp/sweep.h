// Cell execution and parallel sweep orchestration.
//
// `run_cell` turns one Cell of the expanded grid into a CellResult: it
// derives the cell's RNG stream as Rng(spec.seed).fork(cell.index) — a pure
// function of (sweep seed, cell index), never of scheduling — builds the
// tree/inputs/adversary from sub-streams of it into one harness::RunSpec,
// and takes the run, its round budget and its AA verdict from the registry
// (run_protocol, round_budget, check_outcome). `run_sweep` executes the whole
// work list on the scheduler (scheduler.h): each worker writes only its own
// index's slot, so the resulting vector — and the report serialized from it
// (report.h) — is byte-identical for every thread count.
//
// A cell that throws (bad family/grid combination, harness precondition)
// yields ok = false with the exception message in `error`, in its normal
// slot: errors have deterministic placement too.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "exp/scheduler.h"
#include "exp/spec.h"
#include "obs/report.h"

namespace treeaa::exp {

/// Outcome of one grid cell.
struct CellResult {
  Cell cell;

  bool ok = false;      // the run completed (protocol + checks)
  std::string error;    // exception message when !ok

  // AA verdict. For vertex protocols `spread` is the max pairwise output
  // distance on the tree; for real protocols it is max - min of the honest
  // outputs and `agreement` means spread <= eps.
  bool validity = false;
  bool agreement = false;
  double spread = 0.0;

  // Round accounting: rounds actually consumed, the protocol's public
  // budget, and the Fekete lower bound (Theorem 2 instantiated exactly) for
  // the cell's input space.
  std::uint64_t rounds = 0;
  std::uint64_t round_budget = 0;
  std::uint64_t lower_bound = 0;

  // Instance facts. tree_n/tree_diameter stay 0 for real protocols; graph
  // cells reuse them for the graph's vertex count and diameter and
  // additionally record the block count (0 for the other families).
  std::size_t tree_n = 0;
  std::size_t tree_diameter = 0;
  std::size_t graph_blocks = 0;
  std::size_t corrupt = 0;

  // Traffic totals.
  std::uint64_t honest_messages = 0;
  std::uint64_t honest_bytes = 0;
  std::uint64_t adversary_messages = 0;
  std::uint64_t adversary_bytes = 0;

  /// Full per-round run report; filled only when requested (see
  /// SweepOptions::collect_reports).
  obs::RunReport report;

  /// Engine transcript ("treeaa.trace/1" for jsonl), filled only when
  /// SweepOptions::trace_format is set. Deterministic — transcripts never
  /// carry wall-clock data — so traced sweeps stay thread-count-identical.
  std::string trace;

  [[nodiscard]] bool aa_ok() const { return ok && validity && agreement; }
};

struct SweepOptions {
  /// Worker threads; 0 = hardware concurrency (see ScheduleOptions).
  std::size_t threads = 1;
  /// Work-queue chunk size; 0 = automatic.
  std::size_t chunk = 0;
  /// Intra-run engine threads per cell (sim::EngineOptions::threads; 1 =
  /// serial, 0 = hardware). The thread budget is shared, not multiplied:
  /// `threads` is the total, and the scheduler gets threads / run_threads
  /// cell workers (at least 1), so e.g. threads=8 run_threads=4 runs two
  /// cells at a time, each on a 4-lane engine. Reports stay byte-identical
  /// for every combination.
  std::size_t run_threads = 1;
  /// Attach an obs::RunReport to every cell (per-round series in the
  /// report's `rows[*].report`). Costs the probes' overhead per cell.
  bool collect_reports = false;
  /// Record every cell's engine transcript into CellResult::trace:
  /// "" = off, "text" | "jsonl" otherwise (treeaa_cli's --trace-format
  /// vocabulary).
  std::string trace_format = {};
};

/// Wall-clock facts of a sweep execution. The only non-deterministic output
/// of the engine; excluded from the canonical report form.
struct SweepTimings {
  double wall_ms = 0.0;
  std::size_t threads = 1;
  std::size_t cells = 0;
};

struct SweepResult {
  std::vector<CellResult> cells;  // in cell-index order
  SweepTimings timings;
};

/// Runs a single cell. Deterministic given (spec.seed, cell) — the engine
/// thread count never changes the result. `trace_format` as in
/// SweepOptions.
[[nodiscard]] CellResult run_cell(const SweepSpec& spec, const Cell& cell,
                                  bool collect_report = false,
                                  std::size_t run_threads = 1,
                                  const std::string& trace_format = {});

/// Runs `cells` (as produced by expand(spec)) on `opts.threads` workers.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const std::vector<Cell>& cells,
                                    const SweepOptions& opts = {});

/// Convenience: expand + run.
[[nodiscard]] SweepResult run_sweep(const SweepSpec& spec,
                                    const SweepOptions& opts = {});

}  // namespace treeaa::exp

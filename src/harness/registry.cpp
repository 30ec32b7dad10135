#include "harness/registry.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <string>

#include "async/tree_aa.h"
#include "baselines/iterated_real_aa.h"
#include "baselines/iterated_tree_aa.h"
#include "common/check.h"
#include "core/api.h"
#include "core/path_aa.h"
#include "graphs/block_aa.h"
#include "graphs/check.h"
#include "harness/adversary_spec.h"
#include "obs/probe.h"
#include "perf/tree_index.h"
#include "realaa/adversaries.h"
#include "sim/engine.h"
#include "sim/strategies.h"

namespace treeaa::harness {

namespace {

/// Default snapshot: engine-level fields only (the ProbeTracer already
/// filled traffic and corruption counts).
struct NoSnapshot {
  template <typename Proc>
  void operator()(const sim::Engine&, const std::vector<Proc*>&,
                  obs::RoundSample&) const {}
};

/// max - min over the honest parties' current scalar estimates; disengaged
/// when no honest party reports a finite value (e.g. before round 1 of an
/// engine without scalar state).
template <typename Proc, typename Value>
std::optional<double> honest_spread(const sim::Engine& engine,
                                    const std::vector<Proc*>& procs,
                                    Value&& value_of) {
  double lo = std::numeric_limits<double>::infinity();
  double hi = -std::numeric_limits<double>::infinity();
  bool any = false;
  for (PartyId p = 0; p < procs.size(); ++p) {
    if (engine.is_corrupt(p)) continue;
    const double v = value_of(*procs[p]);
    if (!std::isfinite(v)) continue;
    any = true;
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  if (!any) return std::nullopt;
  return hi - lo;
}

template <typename Proc>
std::uint64_t honest_max_detected(const sim::Engine& engine,
                                  const std::vector<Proc*>& procs) {
  std::uint64_t detected = 0;
  for (PartyId p = 0; p < procs.size(); ++p) {
    if (engine.is_corrupt(p)) continue;
    detected = std::max(
        detected, static_cast<std::uint64_t>(procs[p]->detected_faulty()));
  }
  return detected;
}

/// Shared engine-driving skeleton: installs one process per party, runs
/// `rounds` through obs::drive_rounds, extracts results via
/// `extract(p, process)`. With an active `hooks`, `snapshot(engine, procs,
/// sample)` merges protocol-level observations into the sample of the round
/// that just ended, and `round_name` names the driver spans (empty:
/// "round R").
template <typename Proc, typename MakeProc, typename Extract,
          typename Snapshot = NoSnapshot>
void drive(std::size_t n, std::size_t t, std::size_t threads,
           std::unique_ptr<sim::Adversary> adversary, std::size_t rounds,
           MakeProc&& make_proc, Extract&& extract, std::vector<PartyId>* corrupt,
           Round* rounds_out, sim::TrafficStats* traffic,
           const obs::Hooks* hooks = nullptr, Snapshot&& snapshot = {},
           const obs::RoundNamer& round_name = {}) {
  sim::Engine engine(n, std::max<std::size_t>(t, 1),
                     sim::EngineOptions{threads});
  std::vector<Proc*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc = make_proc(p);
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  if (adversary != nullptr) engine.set_adversary(std::move(adversary));

  obs::drive_rounds(
      engine, rounds, hooks,
      [&](obs::RoundSample& s) { snapshot(engine, procs, s); }, round_name);

  for (PartyId p = 0; p < n; ++p) {
    if (!engine.is_corrupt(p)) extract(p, *procs[p]);
  }
  *corrupt = engine.corrupt();
  *rounds_out = engine.rounds_elapsed();
  *traffic = engine.stats();
  if (hooks != nullptr && hooks->report != nullptr) {
    hooks->report->set_totals(n, t, engine.rounds_elapsed(), engine.corrupt(),
                              engine.stats());
  }
}

const char* update_rule_name(realaa::UpdateRule rule) {
  return rule == realaa::UpdateRule::kTrimmedMean ? "trimmed_mean"
                                                  : "trimmed_midpoint";
}

realaa::Config real_config(const RunSpec& spec) {
  realaa::Config cfg;
  cfg.n = spec.n;
  cfg.t = spec.t;
  cfg.eps = spec.eps;
  cfg.known_range = spec.known_range;
  cfg.update = spec.update;
  cfg.mode = spec.mode;
  return cfg;
}

baselines::IteratedRealConfig iterated_real_config(const RunSpec& spec) {
  return baselines::IteratedRealConfig{spec.n, spec.t, spec.eps,
                                       spec.known_range};
}

core::TreeAAOptions tree_options(const RunSpec& spec) {
  return core::TreeAAOptions{spec.update, spec.mode, spec.engine};
}

core::PathsFinderOptions paths_finder_options(const RunSpec& spec) {
  return core::PathsFinderOptions{spec.update, spec.mode, spec.engine,
                                  spec.index_choice};
}

const LabeledTree& spec_tree(const RunSpec& spec) {
  TREEAA_REQUIRE(spec.tree != nullptr);
  return *spec.tree;
}

/// The spec's tree index: the caller's (RunSpec::tree_index), else `own`,
/// built here.
const perf::TreeIndex& spec_tree_index(const RunSpec& spec,
                                       std::optional<perf::TreeIndex>& own) {
  if (spec.tree_index == nullptr) return own.emplace(spec_tree(spec));
  TREEAA_REQUIRE(&spec.tree_index->tree() == &spec_tree(spec));
  return *spec.tree_index;
}

const graphs::BlockIndex& spec_index(const RunSpec& spec) {
  TREEAA_REQUIRE(spec.block_index != nullptr);
  return *spec.block_index;
}

// The round-budget column of the dispatch table, one function per entry.

std::size_t tree_aa_budget(const RunSpec& spec) {
  return core::tree_aa_rounds(spec_tree(spec), spec.n, spec.t,
                              tree_options(spec));
}

std::size_t iterated_tree_aa_budget(const RunSpec& spec) {
  return baselines::IteratedTreeConfig{spec.n, spec.t}.rounds(spec_tree(spec));
}

std::size_t real_aa_budget(const RunSpec& spec) {
  return real_config(spec).rounds();
}

std::size_t iterated_real_aa_budget(const RunSpec& spec) {
  return iterated_real_config(spec).rounds();
}

/// The inner real-valued engine's rounds on spread `d` with target 1: PathAA
/// runs it over the path's diameter, PathsFinder over the Euler list.
std::size_t inner_engine_budget(const RunSpec& spec, double d) {
  return core::real_engine_rounds({spec.engine, spec.update, spec.mode},
                                  spec.n, spec.t, d, 1.0);
}

std::size_t path_aa_budget(const RunSpec& spec) {
  return inner_engine_budget(spec,
                             static_cast<double>(spec_tree(spec).diameter()));
}

std::size_t paths_finder_budget(const RunSpec& spec) {
  return inner_engine_budget(spec, core::paths_finder_range(spec_tree(spec)));
}

std::size_t async_budget(const RunSpec&) { return 0; }

std::size_t block_aa_budget(const RunSpec& spec) {
  return graphs::block_aa_rounds(spec_index(spec), spec.n, spec.t,
                                 tree_options(spec));
}

RunOutcome from_tree_run(core::RunResult&& run) {
  RunOutcome out;
  out.vertex_outputs = std::move(run.outputs);
  out.corrupt = std::move(run.corrupt);
  out.rounds = run.rounds;
  out.traffic = run.traffic;
  out.path_split = run.path_split;
  out.clamp_count = run.clamp_count;
  out.max_detected_faulty = run.max_detected_faulty;
  return out;
}

RunOutcome run_tree_aa_impl(RunSpec& spec) {
  std::optional<perf::TreeIndex> own;
  return from_tree_run(core::run_tree_aa(
      spec_tree_index(spec, own), spec.vertex_inputs, spec.t,
      tree_options(spec), std::move(spec.adversary), spec.hooks,
      sim::EngineOptions{spec.threads}));
}

RunOutcome run_block_aa_impl(RunSpec& spec) {
  return from_tree_run(graphs::run_block_aa(
      spec_index(spec), spec.vertex_inputs, spec.t, tree_options(spec),
      std::move(spec.adversary), spec.hooks, sim::EngineOptions{spec.threads}));
}

RunOutcome run_iterated_tree_aa_impl(RunSpec& spec) {
  const LabeledTree& tree = spec_tree(spec);
  const std::size_t n = spec.n;
  const std::size_t t = spec.t;
  TREEAA_REQUIRE(spec.vertex_inputs.size() == n);
  baselines::IteratedTreeConfig cfg{n, t};
  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "iterated_tree_aa";
    report->add_param("tree_n", static_cast<std::uint64_t>(tree.n()));
  }
  RunOutcome run;
  run.vertex_outputs.resize(n);
  drive<baselines::IteratedTreeAAProcess>(
      n, t, spec.threads, std::move(spec.adversary),
      iterated_tree_aa_budget(spec),
      [&](PartyId p) {
        return std::make_unique<baselines::IteratedTreeAAProcess>(
            tree, cfg, p, spec.vertex_inputs[p]);
      },
      [&](PartyId p, const baselines::IteratedTreeAAProcess& proc) {
        run.vertex_outputs[p] = proc.output();
        TREEAA_CHECK(run.vertex_outputs[p].has_value());
      },
      &run.corrupt, &run.rounds, &run.traffic, hooks);
  return run;
}

RunOutcome run_real_aa_impl(RunSpec& spec) {
  const realaa::Config config = real_config(spec);
  const std::vector<double>& inputs = spec.real_inputs;
  TREEAA_REQUIRE(inputs.size() == config.n);
  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "real_aa";
    report->add_param("eps", config.eps);
    report->add_param("known_range", config.known_range);
    report->add_param("iterations",
                      static_cast<std::uint64_t>(config.iterations()));
    report->add_param("update", update_rule_name(config.update));
  }
  RunOutcome run;
  run.real_outputs.resize(config.n);
  run.real_histories.resize(config.n);
  drive<realaa::RealAAProcess>(
      config.n, config.t, spec.threads, std::move(spec.adversary),
      config.rounds(),
      [&](PartyId p) {
        return std::make_unique<realaa::RealAAProcess>(config, p, inputs[p]);
      },
      [&](PartyId p, const realaa::RealAAProcess& proc) {
        run.real_outputs[p] = proc.output();
        run.real_histories[p] = proc.value_history();
        TREEAA_CHECK_MSG(run.real_outputs[p].has_value(),
                         "honest party " << p << " failed to terminate");
        if (report != nullptr) {
          for (const auto& d : proc.detections()) {
            report->detections.push_back(obs::DetectionEvent{
                static_cast<Round>(3 * d.iteration), p, d.leader});
          }
        }
      },
      &run.corrupt, &run.rounds, &run.traffic, hooks,
      [&](const sim::Engine& engine,
          const std::vector<realaa::RealAAProcess*>& procs,
          obs::RoundSample& s) {
        s.value_diameter = honest_spread(
            engine, procs,
            [](const realaa::RealAAProcess& pr) { return pr.current_value(); });
        s.detected_faulty = honest_max_detected(engine, procs);
        // Iteration-end rounds (every third) carry the grade distribution of
        // the iteration that just finished, summed over honest parties.
        if (s.round == 0 || s.round % 3 != 0) return;
        const std::size_t iteration = s.round / 3;
        std::array<std::uint64_t, 3> grades{0, 0, 0};
        bool any = false;
        for (PartyId p = 0; p < procs.size(); ++p) {
          if (engine.is_corrupt(p)) continue;
          const auto& stats = procs[p]->iteration_stats();
          if (iteration > stats.size()) continue;
          const auto& it = stats[iteration - 1];
          grades[0] += it.grade0;
          grades[1] += it.grade1;
          grades[2] += it.grade2;
          any = true;
        }
        if (any) s.grades = grades;
      },
      obs::gradecast_round_name);
  if (report != nullptr) {
    const auto out = run.honest_real_outputs();
    TREEAA_CHECK(!out.empty());
    const auto [lo, hi] = std::minmax_element(out.begin(), out.end());
    report->add_outcome("output_range", *hi - *lo);
    report->add_outcome("detections",
                        static_cast<std::uint64_t>(report->detections.size()));
  }
  return run;
}

RunOutcome run_iterated_real_aa_impl(RunSpec& spec) {
  const baselines::IteratedRealConfig config = iterated_real_config(spec);
  const std::vector<double>& inputs = spec.real_inputs;
  TREEAA_REQUIRE(inputs.size() == config.n);
  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "iterated_real_aa";
    report->add_param("eps", config.eps);
    report->add_param("known_range", config.known_range);
    report->add_param("iterations",
                      static_cast<std::uint64_t>(config.iterations()));
  }
  RunOutcome run;
  run.real_outputs.resize(config.n);
  run.real_histories.resize(config.n);
  drive<baselines::IteratedRealAAProcess>(
      config.n, config.t, spec.threads, std::move(spec.adversary),
      config.rounds(),
      [&](PartyId p) {
        return std::make_unique<baselines::IteratedRealAAProcess>(config, p,
                                                                  inputs[p]);
      },
      [&](PartyId p, const baselines::IteratedRealAAProcess& proc) {
        run.real_outputs[p] = proc.output();
        run.real_histories[p] = proc.value_history();
        TREEAA_CHECK(run.real_outputs[p].has_value());
      },
      &run.corrupt, &run.rounds, &run.traffic, hooks,
      [&](const sim::Engine& engine,
          const std::vector<baselines::IteratedRealAAProcess*>& procs,
          obs::RoundSample& s) {
        s.value_diameter =
            honest_spread(engine, procs,
                          [](const baselines::IteratedRealAAProcess& pr) {
                            return pr.current_value();
                          });
      },
      obs::gradecast_round_name);
  if (report != nullptr) {
    const auto out = run.honest_real_outputs();
    TREEAA_CHECK(!out.empty());
    const auto [lo, hi] = std::minmax_element(out.begin(), out.end());
    report->add_outcome("output_range", *hi - *lo);
  }
  return run;
}

RunOutcome run_path_aa_impl(RunSpec& spec) {
  const LabeledTree& path_tree = spec_tree(spec);
  const std::size_t n = spec.n;
  const std::size_t t = spec.t;
  TREEAA_REQUIRE(spec.vertex_inputs.size() == n);
  core::PathAAOptions opts{spec.update, spec.mode, spec.engine};
  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "path_aa";
    report->add_param("tree_n", static_cast<std::uint64_t>(path_tree.n()));
  }
  RunOutcome run;
  run.vertex_outputs.resize(n);
  drive<core::PathAAProcess>(
      n, t, spec.threads, std::move(spec.adversary), path_aa_budget(spec),
      [&](PartyId p) {
        return std::make_unique<core::PathAAProcess>(
            path_tree, n, t, p, spec.vertex_inputs[p], opts);
      },
      [&](PartyId p, const core::PathAAProcess& proc) {
        run.vertex_outputs[p] = proc.output();
        TREEAA_CHECK(run.vertex_outputs[p].has_value());
      },
      &run.corrupt, &run.rounds, &run.traffic, hooks);
  return run;
}

RunOutcome run_paths_finder_impl(RunSpec& spec) {
  const LabeledTree& tree = spec_tree(spec);
  const std::size_t n = spec.n;
  const std::size_t t = spec.t;
  TREEAA_REQUIRE(spec.vertex_inputs.size() == n);
  const core::PathsFinderOptions opts = paths_finder_options(spec);
  // One shared index serves every party's Euler positions and materialises
  // output paths without per-call tree walks.
  std::optional<perf::TreeIndex> own;
  const perf::TreeIndex& index = spec_tree_index(spec, own);
  RunOutcome run;
  run.paths.resize(n);
  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  if (report != nullptr) {
    report->protocol = "paths_finder";
    report->add_param("tree_n", static_cast<std::uint64_t>(tree.n()));
    report->add_param("euler_range", core::paths_finder_range(tree));
    report->add_param("engine", core::real_engine_name(opts.engine));
    report->add_param("update", update_rule_name(opts.update));
  }
  drive<core::PathsFinderProcess>(
      n, t, spec.threads, std::move(spec.adversary), paths_finder_budget(spec),
      [&](PartyId p) {
        return std::make_unique<core::PathsFinderProcess>(
            index, n, t, p, spec.vertex_inputs[p], opts);
      },
      [&](PartyId p, const core::PathsFinderProcess& proc) {
        run.paths[p] = proc.path();
        TREEAA_CHECK(run.paths[p].has_value());
        if (report != nullptr) {
          report->metrics.histogram("path_length")
              .observe(static_cast<double>(run.paths[p]->size()));
        }
      },
      &run.corrupt, &run.rounds, &run.traffic, hooks,
      [&](const sim::Engine& engine,
          const std::vector<core::PathsFinderProcess*>& procs,
          obs::RoundSample& s) {
        s.value_diameter = honest_spread(
            engine, procs,
            [](const core::PathsFinderProcess& pr) {
              return pr.current_index();
            });
        s.detected_faulty = honest_max_detected(engine, procs);
      },
      opts.engine == core::RealEngineKind::kGradecastBdh
          ? obs::RoundNamer(obs::gradecast_round_name)
          : obs::RoundNamer());
  if (report != nullptr) {
    const auto& hist = report->metrics.histogram("path_length");
    report->add_outcome("path_length_min", hist.min());
    report->add_outcome("path_length_max", hist.max());
    report->add_outcome("path_length_spread", hist.max() - hist.min());
  }
  return run;
}

RunOutcome run_async_tree_aa_impl(RunSpec& spec) {
  const LabeledTree& tree = spec_tree(spec);
  const std::size_t n = spec.n;
  const std::size_t t = spec.t;
  TREEAA_REQUIRE(spec.vertex_inputs.size() == n);
  async::AsyncEngine engine(n, std::max<std::size_t>(t, 1),
                            std::move(spec.async_opts.corrupt),
                            spec.async_opts.scheduler, spec.async_opts.seed);
  const async::AsyncTreeConfig cfg{n, t};
  std::vector<async::AsyncTreeAAProcess*> procs(n);
  for (PartyId p = 0; p < n; ++p) {
    auto proc = std::make_unique<async::AsyncTreeAAProcess>(
        tree, cfg, p, spec.vertex_inputs[p]);
    procs[p] = proc.get();
    engine.set_process(p, std::move(proc));
  }
  if (spec.async_adversary != nullptr) {
    engine.set_adversary(std::move(spec.async_adversary));
  }

  const obs::Hooks* hooks = spec.hooks;
  obs::RunReport* report = hooks != nullptr ? hooks->report : nullptr;
  {
    obs::ScopeTimer run_timer(
        report == nullptr ? nullptr
                          : &report->timing.histogram(
                                "run_wall_ns", obs::ScopeTimer::wall_bounds()));
    engine.run();
  }

  RunOutcome run;
  run.vertex_outputs.resize(n);
  for (PartyId p = 0; p < n; ++p) {
    if (engine.is_corrupt(p)) continue;
    run.vertex_outputs[p] = procs[p]->output();
    TREEAA_CHECK(run.vertex_outputs[p].has_value());
  }
  run.corrupt = engine.corrupt();
  run.deliveries = engine.deliveries();
  run.messages = engine.messages_sent();
  if (report != nullptr) {
    report->protocol = "async_tree_aa";
    report->add_param("tree_n", static_cast<std::uint64_t>(tree.n()));
    report->add_param("seed", spec.async_opts.seed);
    report->n = n;
    report->t = t;
    report->rounds = 0;  // no synchronous rounds in the async model
    report->corrupt = engine.corrupt();
    report->honest_messages = run.messages;
    report->add_outcome("messages", run.messages);
    report->add_outcome("deliveries", run.deliveries);
  }
  return run;
}

/// One row of the dispatch table.
struct ProtocolEntry {
  ProtocolKind kind;
  const char* name;
  bool vertex;  // vertex-valued (tree + vertex inputs) vs real-valued
  bool sweep;   // available on the sweep grid
  RunOutcome (*run)(RunSpec&);
  std::size_t (*rounds)(const RunSpec&);  // round_budget()
};

/// THE protocol-dispatch table: rows in enum order (indexable by kind).
constexpr std::size_t kProtocolCount = 8;
const std::array<ProtocolEntry, kProtocolCount> kTable = {{
    {ProtocolKind::kTreeAA, "tree_aa", true, true, run_tree_aa_impl,
     tree_aa_budget},
    {ProtocolKind::kIteratedTreeAA, "iterated_tree_aa", true, true,
     run_iterated_tree_aa_impl, iterated_tree_aa_budget},
    {ProtocolKind::kRealAA, "real_aa", false, true, run_real_aa_impl,
     real_aa_budget},
    {ProtocolKind::kIteratedRealAA, "iterated_real_aa", false, true,
     run_iterated_real_aa_impl, iterated_real_aa_budget},
    {ProtocolKind::kPathAA, "path_aa", true, false, run_path_aa_impl,
     path_aa_budget},
    {ProtocolKind::kPathsFinder, "paths_finder", true, false,
     run_paths_finder_impl, paths_finder_budget},
    {ProtocolKind::kAsyncTreeAA, "async_tree_aa", true, false,
     run_async_tree_aa_impl, async_budget},
    // Graph-valued: `vertex` is false because it takes a BlockIndex, not a
    // tree (see is_graph_protocol).
    {ProtocolKind::kBlockAA, "block_aa", false, true, run_block_aa_impl,
     block_aa_budget},
}};

const ProtocolEntry& entry(ProtocolKind p) {
  const auto i = static_cast<std::size_t>(p);
  TREEAA_REQUIRE(i < kTable.size());
  return kTable[i];
}

constexpr std::array<ProtocolKind, kProtocolCount> kProtocolKinds = {
    ProtocolKind::kTreeAA,        ProtocolKind::kIteratedTreeAA,
    ProtocolKind::kRealAA,        ProtocolKind::kIteratedRealAA,
    ProtocolKind::kPathAA,        ProtocolKind::kPathsFinder,
    ProtocolKind::kAsyncTreeAA,   ProtocolKind::kBlockAA,
};

constexpr std::array<const char*, 5> kAdversaryNames = {
    "none", "silent", "fuzz", "split", "split1"};

constexpr std::array<AdversaryKind, 5> kAdversaryKinds = {
    AdversaryKind::kNone, AdversaryKind::kSilent, AdversaryKind::kFuzz,
    AdversaryKind::kSplit, AdversaryKind::kSplit1};

constexpr std::array<const char*, 3> kSchedulerNames = {"fifo", "lifo",
                                                        "random"};

}  // namespace

const char* protocol_name(ProtocolKind p) { return entry(p).name; }

std::optional<ProtocolKind> protocol_from_name(std::string_view name) {
  for (const auto& e : kTable) {
    if (name == e.name) return e.kind;
  }
  return std::nullopt;
}

const char* adversary_name(AdversaryKind a) {
  return kAdversaryNames[static_cast<std::size_t>(a)];
}

std::optional<AdversaryKind> adversary_from_name(std::string_view name) {
  for (std::size_t i = 0; i < kAdversaryNames.size(); ++i) {
    if (name == kAdversaryNames[i]) return kAdversaryKinds[i];
  }
  return std::nullopt;
}

const char* scheduler_name(async::SchedulerKind s) {
  return kSchedulerNames[static_cast<std::size_t>(s)];
}

std::optional<async::SchedulerKind> scheduler_from_name(
    std::string_view name) {
  if (name == "fifo") return async::SchedulerKind::kFifo;
  if (name == "lifo") return async::SchedulerKind::kLifo;
  if (name == "random") return async::SchedulerKind::kRandom;
  return std::nullopt;
}

std::span<const ProtocolKind> all_protocols() { return kProtocolKinds; }

std::span<const AdversaryKind> all_adversaries() { return kAdversaryKinds; }

bool is_vertex_protocol(ProtocolKind p) { return entry(p).vertex; }

bool is_graph_protocol(ProtocolKind p) {
  return p == ProtocolKind::kBlockAA;
}

bool is_sweep_protocol(ProtocolKind p) { return entry(p).sweep; }

bool adversary_applies(ProtocolKind p, AdversaryKind a) {
  switch (a) {
    case AdversaryKind::kNone:
    case AdversaryKind::kSilent:
    case AdversaryKind::kFuzz:
      return true;
    case AdversaryKind::kSplit:
      // The split attack targets a gradecast-distributed RealAA instance:
      // RealAA itself, or the one inside TreeAA's (or BlockAA's inner
      // TreeAA's) PathsFinder.
      return p == ProtocolKind::kTreeAA || p == ProtocolKind::kRealAA ||
             p == ProtocolKind::kBlockAA;
    case AdversaryKind::kSplit1:
      return p == ProtocolKind::kRealAA;
  }
  return false;
}

std::unique_ptr<sim::Adversary> make_adversary(const AdversaryPlan& plan) {
  // The named kinds are fixed points of the AdversarySpec space: routing
  // through the exact adapter keeps one construction switch for both worlds
  // (adversary_spec.cpp), byte-identical to the historical plan path.
  return make_adversary(spec_from_plan(plan));
}

std::vector<VertexId> RunOutcome::honest_vertex_outputs() const {
  std::vector<VertexId> out;
  for (const auto& o : vertex_outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

std::vector<double> RunOutcome::honest_real_outputs() const {
  std::vector<double> out;
  for (const auto& o : real_outputs) {
    if (o.has_value()) out.push_back(*o);
  }
  return out;
}

const char* spec_error_name(SpecError e) {
  switch (e) {
    case SpecError::kFaultBound: return "fault_bound";
    case SpecError::kMissingTree: return "missing_tree";
    case SpecError::kMissingIndex: return "missing_index";
    case SpecError::kInputCountMismatch: return "input_count_mismatch";
    case SpecError::kInputOutOfRange: return "input_out_of_range";
    case SpecError::kRealParams: return "real_params";
    case SpecError::kCorruptBound: return "corrupt_bound";
    case SpecError::kAdversaryInapplicable: return "adversary_inapplicable";
  }
  return "unknown";
}

std::optional<SpecIssue> validate_axes(ProtocolKind protocol, std::size_t n,
                                       std::size_t t,
                                       std::optional<AdversaryKind> adversary) {
  if (!fault_bound_holds(n, t)) {
    return SpecIssue{SpecError::kFaultBound,
                     "n = " + std::to_string(n) + " needs n > 3t (t = " +
                         std::to_string(t) + ")"};
  }
  if (adversary.has_value() && !adversary_applies(protocol, *adversary)) {
    return SpecIssue{SpecError::kAdversaryInapplicable,
                     std::string("adversary '") + adversary_name(*adversary) +
                         "' does not apply to protocol '" +
                         protocol_name(protocol) + "'"};
  }
  return std::nullopt;
}

std::vector<SpecIssue> validate(const RunSpec& spec,
                                std::optional<AdversaryKind> adversary) {
  std::vector<SpecIssue> issues;
  if (const auto axis = validate_axes(spec.protocol, spec.n, spec.t, adversary);
      axis.has_value()) {
    issues.push_back(*axis);
  }
  const bool graph = is_graph_protocol(spec.protocol);
  const bool vertex = is_vertex_protocol(spec.protocol);
  if (vertex) {
    if (spec.tree == nullptr) {
      issues.push_back(SpecIssue{
          SpecError::kMissingTree,
          std::string(protocol_name(spec.protocol)) + " needs a tree"});
    } else {
      for (const VertexId v : spec.vertex_inputs) {
        if (v >= spec.tree->n()) {
          issues.push_back(
              SpecIssue{SpecError::kInputOutOfRange,
                        "input vertex " + std::to_string(v) +
                            " outside tree of size " +
                            std::to_string(spec.tree->n())});
          break;
        }
      }
    }
  }
  if (graph) {
    if (spec.block_index == nullptr) {
      issues.push_back(SpecIssue{
          SpecError::kMissingIndex,
          std::string(protocol_name(spec.protocol)) + " needs a block index"});
    } else {
      for (const VertexId v : spec.vertex_inputs) {
        if (v >= spec.block_index->n()) {
          issues.push_back(
              SpecIssue{SpecError::kInputOutOfRange,
                        "input vertex " + std::to_string(v) +
                            " outside graph of size " +
                            std::to_string(spec.block_index->n())});
          break;
        }
      }
    }
  }
  if (vertex || graph) {
    if (spec.vertex_inputs.size() != spec.n) {
      issues.push_back(
          SpecIssue{SpecError::kInputCountMismatch,
                    "have " + std::to_string(spec.vertex_inputs.size()) +
                        " vertex inputs for n = " + std::to_string(spec.n) +
                        " parties"});
    }
  } else {
    if (spec.real_inputs.size() != spec.n) {
      issues.push_back(
          SpecIssue{SpecError::kInputCountMismatch,
                    "have " + std::to_string(spec.real_inputs.size()) +
                        " real inputs for n = " + std::to_string(spec.n) +
                        " parties"});
    }
    if (!(std::isfinite(spec.eps) && spec.eps > 0.0) ||
        !(std::isfinite(spec.known_range) && spec.known_range >= 0.0)) {
      issues.push_back(
          SpecIssue{SpecError::kRealParams,
                    "real protocols need finite eps > 0 and known_range >= 0"});
    }
  }
  if (spec.protocol == ProtocolKind::kAsyncTreeAA &&
      spec.async_opts.corrupt.size() > spec.t) {
    issues.push_back(
        SpecIssue{SpecError::kCorruptBound,
                  "corrupt list of " +
                      std::to_string(spec.async_opts.corrupt.size()) +
                      " exceeds t = " + std::to_string(spec.t)});
  }
  return issues;
}

RunOutcome run_protocol(RunSpec& spec) {
  return entry(spec.protocol).run(spec);
}

std::size_t round_budget(const RunSpec& spec) {
  return entry(spec.protocol).rounds(spec);
}

std::optional<realaa::Config> split_target(const RunSpec& spec) {
  switch (spec.protocol) {
    case ProtocolKind::kTreeAA:
      return core::paths_finder_config(spec_tree(spec), spec.n, spec.t,
                                       paths_finder_options(spec));
    case ProtocolKind::kBlockAA:
      return core::paths_finder_config(spec_index(spec).agreement_tree(),
                                       spec.n, spec.t,
                                       paths_finder_options(spec));
    case ProtocolKind::kRealAA:
      return real_config(spec);
    default:
      return std::nullopt;
  }
}

namespace {

/// Phase 1 alone has no single output vertex; the checkable guarantees are
/// that every honest party ends with a non-empty root-anchored path and
/// that honest paths differ by at most one edge (Lemma 4), observable as
/// tip distance <= 1.
Verdict check_paths(const perf::TreeIndex& index,
                    const RunOutcome& outcome) {
  const LabeledTree& tree = index.tree();
  bool rooted = true;
  std::vector<VertexId> tips;
  for (const auto& path : outcome.paths) {
    if (!path.has_value()) continue;
    if (path->empty() || path->front() != tree.root()) {
      rooted = false;
      continue;
    }
    tips.push_back(path->back());
  }
  if (tips.empty()) return Verdict{};
  const std::uint32_t spread = index.max_pairwise_distance(tips, tips);
  return Verdict{rooted, spread <= 1, static_cast<double>(spread)};
}

Verdict check_reals(const RunSpec& spec, const RunOutcome& outcome) {
  double in_lo = 0.0, in_hi = 0.0, out_lo = 0.0, out_hi = 0.0;
  bool first = true;
  for (std::size_t p = 0; p < outcome.real_outputs.size(); ++p) {
    if (!outcome.real_outputs[p].has_value()) continue;
    const double in = spec.real_inputs[p];
    const double out = *outcome.real_outputs[p];
    if (first) {
      in_lo = in_hi = in;
      out_lo = out_hi = out;
      first = false;
    } else {
      in_lo = std::min(in_lo, in);
      in_hi = std::max(in_hi, in);
      out_lo = std::min(out_lo, out);
      out_hi = std::max(out_hi, out);
    }
  }
  if (first) return Verdict{};
  const double spread = out_hi - out_lo;
  return Verdict{out_lo >= in_lo && out_hi <= in_hi, spread <= spec.eps,
                 spread};
}

}  // namespace

Verdict check_outcome(const RunSpec& spec, const RunOutcome& outcome) {
  std::optional<perf::TreeIndex> own;
  if (spec.protocol == ProtocolKind::kPathsFinder) {
    return check_paths(spec_tree_index(spec, own), outcome);
  }
  if (!is_vertex_protocol(spec.protocol) && !is_graph_protocol(spec.protocol)) {
    return check_reals(spec, outcome);
  }
  std::vector<VertexId> honest_inputs;
  std::vector<VertexId> honest_outputs;
  for (std::size_t p = 0; p < outcome.vertex_outputs.size(); ++p) {
    if (!outcome.vertex_outputs[p].has_value()) continue;
    honest_inputs.push_back(spec.vertex_inputs[p]);
    honest_outputs.push_back(*outcome.vertex_outputs[p]);
  }
  if (honest_outputs.empty()) return Verdict{};
  if (is_graph_protocol(spec.protocol)) {
    const auto check = graphs::check_agreement(spec_index(spec), honest_inputs,
                                               honest_outputs);
    return Verdict{check.valid, check.one_agreement,
                   static_cast<double>(check.max_pairwise_distance)};
  }
  const auto check = core::check_agreement(spec_tree_index(spec, own),
                                           honest_inputs, honest_outputs);
  return Verdict{check.valid, check.one_agreement,
                 static_cast<double>(check.max_pairwise_distance)};
}

}  // namespace treeaa::harness

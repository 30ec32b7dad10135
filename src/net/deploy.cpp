#include "net/deploy.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/rng.h"
#include "common/types.h"
#include "core/real_engine.h"
#include "core/tree_aa.h"
#include "graphs/block_aa.h"
#include "graphs/check.h"
#include "net/behaviors.h"
#include "net/runtime.h"
#include "obs/span.h"
#include "perf/tree_index.h"
#include "sim/engine.h"
#include "sim/strategies.h"

namespace treeaa::net {

namespace {

// Decorrelates the behaviors' randomness from the victim draw and the
// link-fault streams, which all start from cfg.seed too.
constexpr std::uint64_t kFuzzSeedSalt = 0xFA55BEA700000001ull;

std::unique_ptr<sim::Process> make_behavior(AdversaryKind kind, PartyId self,
                                            std::size_t n,
                                            std::uint64_t fuzz_seed) {
  switch (kind) {
    case AdversaryKind::kSilent:
      return std::make_unique<SilentBehavior>();
    case AdversaryKind::kFuzz:
      return std::make_unique<FuzzBehavior>(self, n, fuzz_seed);
    case AdversaryKind::kNone:
    case AdversaryKind::kSplit:
    case AdversaryKind::kSplit1:
      break;  // parse_adversary admits none/silent/fuzz only
  }
  TREEAA_CHECK_MSG(false, "no behavior for adversary kind");
  return nullptr;
}

bool contains(const std::vector<PartyId>& parties, PartyId p) {
  return std::find(parties.begin(), parties.end(), p) != parties.end();
}

}  // namespace

std::optional<AdversaryKind> parse_adversary(std::string_view name) {
  const auto kind = harness::adversary_from_name(name);
  if (kind == AdversaryKind::kNone || kind == AdversaryKind::kSilent ||
      kind == AdversaryKind::kFuzz) {
    return kind;
  }
  return std::nullopt;
}

DeployResult run_tree_aa_net(const LabeledTree& tree,
                             const std::vector<VertexId>& inputs,
                             std::size_t t, const DeployConfig& cfg) {
  const std::size_t n = inputs.size();
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t),
                     "TreeAA requires n > 3t (n = " << n << ", t = " << t
                                                    << ")");
  for (const VertexId v : inputs) tree.require_vertex(v);
  for (const FaultPlan::Crash& c : cfg.faults.crashes) {
    TREEAA_REQUIRE_MSG(c.party < n,
                       "crash names party " << c.party << " but n = " << n);
  }

  const auto rounds =
      static_cast<Round>(core::tree_aa_rounds(tree, n, t, cfg.protocol));
  const std::uint64_t fuzz_seed = splitmix64(cfg.seed ^ kFuzzSeedSalt);

  DeployResult result;
  result.rounds = rounds;
  const std::size_t corrupt_count = cfg.corrupt_count.value_or(t);
  TREEAA_REQUIRE_MSG(corrupt_count <= t,
                     "corrupt_count " << corrupt_count << " exceeds t = " << t);
  if (cfg.adversary != AdversaryKind::kNone && corrupt_count > 0) {
    Rng rng(cfg.seed);
    result.corrupt = sim::random_parties(n, corrupt_count, rng);
  }
  for (PartyId p = 0; p < n; ++p) {
    const auto crash = cfg.faults.crash_round(p);
    if (crash.has_value() && *crash <= rounds && !contains(result.corrupt, p)) {
      result.crashed.push_back(p);
    }
  }

  // --- The socket world ------------------------------------------------------
  const perf::TreeIndex index(tree);
  NetOptions net_options;
  net_options.faults = cfg.faults;
  net_options.seed = cfg.seed;
  net_options.round_timeout_ms = cfg.round_timeout_ms;
  net_options.spans = cfg.spans;
  if (cfg.timings) net_options.timing = &result.report.timing;
  NetRunner runner(n, std::move(net_options));
  std::vector<core::TreeAAProcess*> net_procs(n, nullptr);
  for (PartyId p = 0; p < n; ++p) {
    if (contains(result.corrupt, p)) {
      runner.set_process(p, make_behavior(cfg.adversary, p, n, fuzz_seed));
    } else {
      auto proc = std::make_unique<core::TreeAAProcess>(
          index, n, t, p, inputs[p], cfg.protocol);
      net_procs[p] = proc.get();
      runner.set_process(p, std::move(proc));
    }
  }
  runner.run(rounds);

  result.outputs.resize(n);
  for (PartyId p = 0; p < n; ++p) {
    if (net_procs[p] == nullptr) continue;
    result.outputs[p] = net_procs[p]->output();
    TREEAA_CHECK_MSG(result.outputs[p].has_value(),
                     "party " << p << " failed to terminate on the mesh");
  }

  // --- The discrete reference world -----------------------------------------
  if (cfg.crosscheck) {
    sim::Engine engine(n, std::max<std::size_t>(t, 1),
                       sim::EngineOptions{cfg.threads});
    std::vector<core::TreeAAProcess*> sim_procs(n, nullptr);
    for (PartyId p = 0; p < n; ++p) {
      auto proc = std::make_unique<core::TreeAAProcess>(
          index, n, t, p, inputs[p], cfg.protocol);
      sim_procs[p] = proc.get();
      engine.set_process(p, std::move(proc));
    }
    if (!result.corrupt.empty()) {
      std::vector<sim::PuppetAdversary::Puppet> puppets;
      for (const PartyId p : result.corrupt) {
        puppets.push_back(sim::PuppetAdversary::Puppet{
            p, make_behavior(cfg.adversary, p, n, fuzz_seed), nullptr});
      }
      engine.set_adversary(
          std::make_unique<sim::PuppetAdversary>(std::move(puppets)));
    }
    // Same tracer chain as the drivers: spans (prefixed so the replay's
    // tracks sit apart from the socket threads') before the caller's
    // transcript tracer.
    std::optional<obs::SpanTracer> span_tracer;
    sim::Tracer* chained = cfg.sim_tracer;
    if (cfg.spans != nullptr) {
      span_tracer.emplace(*cfg.spans, chained, "replay ");
      chained = &*span_tracer;
    }
    if (chained != nullptr) engine.set_tracer(chained);
    FaultLinkLayer link_layer(cfg.faults, n, cfg.seed);
    engine.set_link_layer(&link_layer);
    engine.run(rounds);
    engine.set_tracer(nullptr);

    result.sim_outputs.resize(n);
    for (PartyId p = 0; p < n; ++p) {
      if (engine.is_corrupt(p)) continue;
      result.sim_outputs[p] = sim_procs[p]->output();
      if (result.sim_outputs[p] != result.outputs[p]) result.sim_match = false;
    }
  }

  // --- Verdict and report ----------------------------------------------------
  std::vector<VertexId> honest_inputs;
  std::vector<VertexId> honest_outputs;
  for (PartyId p = 0; p < n; ++p) {
    if (contains(result.corrupt, p) || contains(result.crashed, p)) continue;
    honest_inputs.push_back(inputs[p]);
    honest_outputs.push_back(*result.outputs[p]);
  }
  TREEAA_REQUIRE_MSG(!honest_outputs.empty(),
                     "every party is Byzantine or crashed");
  result.check = core::check_agreement(index, honest_inputs, honest_outputs);

  NetReport& report = result.report;
  report.n = n;
  report.t = t;
  report.rounds = rounds;
  report.seed = cfg.seed;
  report.engine = core::real_engine_name(cfg.protocol.engine);
  report.adversary = adversary_name(cfg.adversary);
  report.fault_plan = cfg.faults.describe();
  report.round_timeout_ms = cfg.round_timeout_ms;
  report.corrupt = result.corrupt;
  report.crashed = result.crashed;
  for (PartyId p = 0; p < n; ++p) {
    for (PartyId q = 0; q < n; ++q) {
      if (q == p) continue;
      const LinkStats stats = runner.link_stats(p, q);
      if (stats.dropped + stats.delayed + stats.duplicated + stats.corrupted +
              stats.suppressed + stats.stale_discarded + stats.decode_errors >
          0) {
        report.links.push_back(NetLinkEntry{p, q, stats});
      }
    }
    report.parties.push_back(
        NetPartyEntry{p, runner.party_stats(p), result.outputs[p]});
    report.timeouts_total += runner.party_stats(p).timeouts;
  }
  report.totals = runner.totals();
  report.valid = result.check.valid;
  report.one_agreement = result.check.one_agreement;
  report.max_pairwise_distance = result.check.max_pairwise_distance;
  report.sim_reference_match = result.sim_match;
  return result;
}

DeployResult run_block_aa_net(const graphs::BlockIndex& index,
                              const std::vector<VertexId>& inputs,
                              std::size_t t, const DeployConfig& cfg) {
  // Step 1 of the reduction: lift G vertices to their A(G) nodes, then run
  // the unmodified inner TreeAA on the agreement tree over the real
  // transport. Rounds, fault plan, victims and the sim cross-check all
  // happen in the A world, where the protocol actually executes.
  std::vector<VertexId> lifted;
  lifted.reserve(inputs.size());
  for (const VertexId v : inputs) lifted.push_back(index.to_agreement(v));
  DeployResult result =
      run_tree_aa_net(index.agreement_tree(), lifted, t, cfg);

  // Step 3: gate-map every A-node output back to a G vertex, toward the
  // party's own input. The sim outputs go through the same map so
  // sim_match keeps comparing like with like (resolve is deterministic,
  // so the A-world verdict carries over unchanged).
  const std::size_t n = inputs.size();
  for (PartyId p = 0; p < n; ++p) {
    if (result.outputs[p].has_value()) {
      result.outputs[p] =
          graphs::resolve_block_output(index, *result.outputs[p], inputs[p]);
    }
    if (p < result.sim_outputs.size() && result.sim_outputs[p].has_value()) {
      result.sim_outputs[p] = graphs::resolve_block_output(
          index, *result.sim_outputs[p], inputs[p]);
    }
  }

  // The verdict is re-taken in the graph metric: hull validity and the
  // block-graph 1-Agreement disjunction instead of tree distance.
  std::vector<VertexId> honest_inputs;
  std::vector<VertexId> honest_outputs;
  for (PartyId p = 0; p < n; ++p) {
    if (contains(result.corrupt, p) || contains(result.crashed, p)) continue;
    honest_inputs.push_back(inputs[p]);
    honest_outputs.push_back(*result.outputs[p]);
  }
  const graphs::GraphAgreementCheck graph_check =
      graphs::check_agreement(index, honest_inputs, honest_outputs);
  result.check.valid = graph_check.valid;
  result.check.one_agreement = graph_check.one_agreement;
  result.check.max_pairwise_distance = graph_check.max_pairwise_distance;

  NetReport& report = result.report;
  for (NetPartyEntry& entry : report.parties) {
    entry.output = result.outputs[entry.party];
  }
  report.valid = result.check.valid;
  report.one_agreement = result.check.one_agreement;
  report.max_pairwise_distance = result.check.max_pairwise_distance;
  return result;
}

}  // namespace treeaa::net

#include "serve/instance.h"

#include <utility>

#include "common/rng.h"
#include "exp/ledger.h"
#include "harness/adversary_spec.h"
#include "harness/runner.h"
#include "obs/report.h"
#include "sim/strategies.h"

namespace treeaa::serve {

namespace {

// Fork tags of the per-instance RNG sub-streams, matching the sweep
// engine's cell tags so the draw discipline is recognizably the same.
// Tag 1 (the sweep's tree stream) is unused: topologies come from the
// catalog, not from per-instance generation.
constexpr std::uint64_t kInputTag = 2;
constexpr std::uint64_t kAdversaryTag = 3;

/// FNV-1a over a canonical encoding — the reply's determinism witness.
std::uint64_t fnv1a(const Bytes& bytes) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t hash_vertex_outputs(
    const std::vector<std::optional<VertexId>>& outputs) {
  ByteWriter w;
  for (std::size_t p = 0; p < outputs.size(); ++p) {
    if (!outputs[p].has_value()) continue;
    w.varint(p);
    w.varint(*outputs[p]);
  }
  return fnv1a(w.bytes());
}

std::uint64_t hash_real_outputs(
    const std::vector<std::optional<double>>& outputs) {
  ByteWriter w;
  for (std::size_t p = 0; p < outputs.size(); ++p) {
    if (!outputs[p].has_value()) continue;
    w.varint(p);
    w.f64(*outputs[p]);
  }
  return fnv1a(w.bytes());
}

std::uint64_t hash_paths(
    const std::vector<std::optional<std::vector<VertexId>>>& paths) {
  ByteWriter w;
  for (std::size_t p = 0; p < paths.size(); ++p) {
    if (!paths[p].has_value()) continue;
    w.varint(p);
    w.vec(*paths[p], [](ByteWriter& ww, VertexId v) { ww.varint(v); });
  }
  return fnv1a(w.bytes());
}

/// Protocols whose round budget and diameter series the convergence
/// ledger's claims apply to: the synchronous AA families. paths_finder is
/// phase 1 alone (its budget is below the full-AA Fekete bound by design)
/// and the async model has no rounds, so checking them would manufacture
/// spurious violations.
bool ledger_applies(harness::ProtocolKind p) {
  return p != harness::ProtocolKind::kPathsFinder &&
         p != harness::ProtocolKind::kAsyncTreeAA;
}

bool is_served_adversary(harness::AdversaryKind a) {
  // The split attacks need a protocol-specific inner Config and a fixed
  // victim schedule; they are experiment-grid material, not a service
  // vocabulary. Serve requests choose among none/silent/fuzz.
  return a == harness::AdversaryKind::kNone ||
         a == harness::AdversaryKind::kSilent ||
         a == harness::AdversaryKind::kFuzz;
}

}  // namespace

void Catalog::add_tree(std::string name, LabeledTree tree) {
  trees_.insert_or_assign(std::move(name), std::move(tree));
}

void Catalog::add_graph(std::string name, const graphs::Graph& g) {
  graphs_.insert_or_assign(std::move(name),
                           std::make_unique<graphs::BlockIndex>(g));
}

const LabeledTree* Catalog::tree(const std::string& name) const {
  const auto it = trees_.find(name);
  return it == trees_.end() ? nullptr : &it->second;
}

const graphs::BlockIndex* Catalog::graph(const std::string& name) const {
  const auto it = graphs_.find(name);
  return it == graphs_.end() ? nullptr : it->second.get();
}

std::optional<RejectCode> validate_request(const Catalog& catalog,
                                           const OpenRequest& req,
                                           std::string* detail) {
  const auto set_detail = [detail](const char* msg) {
    if (detail != nullptr) *detail = msg;
  };

  const auto protocol = harness::protocol_from_name(req.protocol);
  if (!protocol.has_value()) {
    set_detail("protocol not in the registry");
    return RejectCode::kUnknownProtocol;
  }
  const auto adversary = harness::adversary_from_name(req.adversary);
  if (!adversary.has_value() || !is_served_adversary(*adversary)) {
    set_detail("adversary must be none, silent or fuzz");
    return RejectCode::kBadRequest;
  }
  if (*protocol == harness::ProtocolKind::kAsyncTreeAA &&
      *adversary == harness::AdversaryKind::kFuzz) {
    set_detail("the async model serves none/silent only");
    return RejectCode::kBadRequest;
  }
  if (req.n == 0 || req.n > kMaxParties) {
    set_detail("n out of [1, kMaxParties]");
    return RejectCode::kBadRequest;
  }
  // Shared preconditions go through the harness validator; the typed codes
  // map onto serve's historical wire strings.
  if (const auto issue = harness::validate_axes(
          *protocol, static_cast<std::size_t>(req.n),
          static_cast<std::size_t>(req.t), *adversary);
      issue.has_value()) {
    switch (issue->error) {
      case harness::SpecError::kFaultBound:
        set_detail("requires n > 3t");
        break;
      default:
        set_detail("adversary must be none, silent or fuzz");
        break;
    }
    return RejectCode::kBadRequest;
  }
  if (req.corrupt > req.t) {
    set_detail("corrupt exceeds t");
    return RejectCode::kBadRequest;
  }
  if (harness::is_graph_protocol(*protocol)) {
    if (catalog.graph(req.topology) == nullptr) {
      set_detail("no such graph in the catalog");
      return RejectCode::kUnknownTopology;
    }
  } else if (harness::is_vertex_protocol(*protocol)) {
    const LabeledTree* tree = catalog.tree(req.topology);
    if (tree == nullptr) {
      set_detail("no such tree in the catalog");
      return RejectCode::kUnknownTopology;
    }
    if (*protocol == harness::ProtocolKind::kPathAA &&
        static_cast<std::size_t>(tree->diameter()) + 1 != tree->n()) {
      set_detail("path_aa requires a path topology");
      return RejectCode::kBadRequest;
    }
  } else {
    // Real-parameter admission reuses the full-spec validator on a skeleton
    // spec (inputs sized to n so only the parameter check can fire).
    harness::RunSpec skeleton;
    skeleton.protocol = *protocol;
    skeleton.n = static_cast<std::size_t>(req.n);
    skeleton.t = static_cast<std::size_t>(req.t);
    skeleton.eps = req.eps;
    skeleton.known_range = req.known_range;
    skeleton.real_inputs.resize(skeleton.n);
    for (const auto& issue : harness::validate(skeleton)) {
      if (issue.error == harness::SpecError::kRealParams) {
        set_detail("real protocols need finite eps > 0 and known_range >= 0");
        return RejectCode::kBadRequest;
      }
    }
  }
  return std::nullopt;
}

InstanceResult run_instance(const Catalog& catalog, const OpenRequest& req,
                            bool ledger) {
  InstanceResult result;
  try {
    const auto protocol = *harness::protocol_from_name(req.protocol);
    const auto adversary = *harness::adversary_from_name(req.adversary);
    const std::size_t n = static_cast<std::size_t>(req.n);
    const std::size_t t = static_cast<std::size_t>(req.t);
    const std::size_t corrupt = static_cast<std::size_t>(req.corrupt);

    Rng root(req.seed);
    Rng input_rng = root.fork(kInputTag);
    Rng adv_rng = root.fork(kAdversaryTag);

    harness::RunSpec spec;
    spec.protocol = protocol;
    spec.n = n;
    spec.t = t;
    spec.threads = 1;  // parallelism is across instances, never inside one

    const bool spread = req.inputs == InputKind::kSpread;
    if (harness::is_graph_protocol(protocol)) {
      const graphs::BlockIndex& index = *catalog.graph(req.topology);
      spec.block_index = &index;
      spec.vertex_inputs =
          spread ? harness::spread_vertex_inputs(index, n)
                 : harness::random_vertex_inputs(index, n, input_rng);
    } else if (harness::is_vertex_protocol(protocol)) {
      const LabeledTree& tree = *catalog.tree(req.topology);
      spec.tree = &tree;
      spec.vertex_inputs =
          spread ? harness::spread_vertex_inputs(tree, n)
                 : harness::random_vertex_inputs(tree, n, input_rng);
    } else {
      spec.real_inputs =
          spread ? harness::spread_real_inputs(n, 0.0, req.known_range)
                 : harness::random_real_inputs(n, 0.0, req.known_range,
                                               input_rng);
      spec.eps = req.eps;
      spec.known_range = req.known_range;
    }

    // Adversary randomness draws mirror the sweep's fixed order: victims
    // first, then the fuzz payload seed.
    std::vector<PartyId> victims;
    if (adversary != harness::AdversaryKind::kNone && corrupt > 0) {
      victims = sim::random_parties(n, corrupt, adv_rng);
    }
    if (protocol == harness::ProtocolKind::kAsyncTreeAA) {
      // The async engine models silent-from-start parties natively.
      spec.async_opts.corrupt = victims;
      spec.async_opts.seed = req.seed;
    } else if (!victims.empty()) {
      harness::AdversarySpec adv_spec;
      adv_spec.kind = adversary;
      adv_spec.victims = std::move(victims);
      if (adversary == harness::AdversaryKind::kFuzz) {
        adv_spec.fuzz_seed = adv_rng.next();
      }
      spec.adversary = harness::make_adversary(adv_spec);
    }

    obs::RunReport run_report;
    obs::Hooks hooks;
    const bool check_ledger = ledger && ledger_applies(protocol);
    if (check_ledger) {
      // A report sink drives the engine round by round but never changes
      // outcome bytes (the obs contract), so replies stay identical with
      // and without the ledger.
      hooks.report = &run_report;
      spec.hooks = &hooks;
    }

    const auto outcome = harness::run_protocol(spec);

    if (check_ledger) {
      if (const auto in = exp::ledger_input_from_report(run_report)) {
        result.ledger_violations = exp::build_ledger(*in).violations;
      }
    }
    result.reply.rounds = outcome.rounds;
    result.reply.messages =
        protocol == harness::ProtocolKind::kAsyncTreeAA
            ? outcome.messages
            : outcome.traffic.total_messages();
    result.reply.corrupt = outcome.corrupt.size();

    const harness::Verdict verdict = harness::check_outcome(spec, outcome);
    result.reply.valid = verdict.valid;
    result.reply.one_agreement = verdict.agreement;
    result.reply.spread = verdict.spread;
    result.reply.ok = verdict.ok();
    if (protocol == harness::ProtocolKind::kPathsFinder) {
      result.reply.outputs_hash = hash_paths(outcome.paths);
    } else if (harness::is_vertex_protocol(protocol) ||
               harness::is_graph_protocol(protocol)) {
      result.reply.outputs_hash = hash_vertex_outputs(outcome.vertex_outputs);
    } else {
      result.reply.outputs_hash = hash_real_outputs(outcome.real_outputs);
    }
  } catch (const std::exception& e) {
    result.error = e.what();
  }
  return result;
}

}  // namespace treeaa::serve

#include "exp/spec.h"

#include <cmath>
#include <stdexcept>
#include <utility>

#include "common/json_value.h"
#include "graphs/generators.h"
#include "trees/generators.h"

namespace treeaa::exp {

namespace {

[[noreturn]] void fail(const std::string& message) {
  throw std::invalid_argument("sweep spec: " + message);
}

Protocol protocol_from_name(const std::string& name) {
  const auto p = harness::protocol_from_name(name);
  // Registry names outside the sweep grid (path_aa, paths_finder, ...) were
  // never valid in a spec; keep rejecting them with the historical message.
  if (p.has_value() && harness::is_sweep_protocol(*p)) return *p;
  fail("unknown protocol '" + name + "'");
}

AdversaryKind adversary_from_name(const std::string& name) {
  const auto a = harness::adversary_from_name(name);
  if (a.has_value()) return *a;
  fail("unknown adversary '" + name + "'");
}

bool valid_family(const std::string& name) {
  if (name == "chainy") return true;
  for (const TreeFamily f : all_tree_families()) {
    if (name == tree_family_name(f)) return true;
  }
  return false;
}

bool valid_graph_family(const std::string& name) {
  for (const graphs::GraphFamily f : graphs::all_graph_families()) {
    if (name == graphs::graph_family_name(f)) return true;
  }
  return false;
}

/// Which input family a protocol belongs to; scenarios must be homogeneous.
enum class ProtocolFamily { kVertex, kReal, kGraph };

ProtocolFamily family_of(Protocol p) {
  if (is_graph_protocol(p)) return ProtocolFamily::kGraph;
  return is_vertex_protocol(p) ? ProtocolFamily::kVertex
                               : ProtocolFamily::kReal;
}

// --- Typed JSON field extraction --------------------------------------------
// All helpers take the owning key path for error messages.

double get_number(const JsonValue& v, const std::string& where) {
  if (!v.is_number()) fail(where + " must be a number");
  return v.as_number();
}

std::uint64_t get_uint(const JsonValue& v, const std::string& where) {
  const double d = get_number(v, where);
  if (d < 0 || d != std::floor(d) || d > 1e18) {
    fail(where + " must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(d);
}

std::vector<double> get_number_list(const JsonValue& v,
                                    const std::string& where) {
  if (!v.is_array() || v.items().empty()) {
    fail(where + " must be a non-empty array of numbers");
  }
  std::vector<double> out;
  for (const JsonValue& item : v.items()) out.push_back(get_number(item, where));
  return out;
}

std::vector<std::size_t> get_uint_list(const JsonValue& v,
                                       const std::string& where) {
  if (!v.is_array() || v.items().empty()) {
    fail(where + " must be a non-empty array of integers");
  }
  std::vector<std::size_t> out;
  for (const JsonValue& item : v.items()) {
    out.push_back(static_cast<std::size_t>(get_uint(item, where)));
  }
  return out;
}

std::vector<std::string> get_string_list(const JsonValue& v,
                                         const std::string& where) {
  if (!v.is_array() || v.items().empty()) {
    fail(where + " must be a non-empty array of strings");
  }
  std::vector<std::string> out;
  for (const JsonValue& item : v.items()) {
    if (!item.is_string()) fail(where + " must contain strings only");
    out.push_back(item.as_string());
  }
  return out;
}

void check_known_keys(const JsonValue& obj, const std::string& where,
                      std::initializer_list<std::string_view> known) {
  for (const auto& [key, value] : obj.members()) {
    (void)value;
    bool ok = false;
    for (const std::string_view k : known) ok = ok || key == k;
    if (!ok) fail(where + ": unknown key '" + key + "'");
  }
}

TreeSpec parse_tree(const JsonValue& v, const std::string& where) {
  if (!v.is_object()) fail(where + " must be an object");
  check_known_keys(v, where, {"families", "sizes", "tree_seed", "chain_bias"});
  TreeSpec tree;
  const JsonValue* families = v.find("families");
  if (families == nullptr) fail(where + ".families is required");
  tree.families = get_string_list(*families, where + ".families");
  for (const std::string& f : tree.families) {
    if (!valid_family(f)) fail(where + ": unknown tree family '" + f + "'");
  }
  const JsonValue* sizes = v.find("sizes");
  if (sizes == nullptr) fail(where + ".sizes is required");
  tree.sizes = get_uint_list(*sizes, where + ".sizes");
  for (const std::size_t s : tree.sizes) {
    if (s < 2) fail(where + ".sizes entries must be >= 2");
  }
  if (const JsonValue* seed = v.find("tree_seed")) {
    tree.tree_seed = get_uint(*seed, where + ".tree_seed");
  }
  if (const JsonValue* bias = v.find("chain_bias")) {
    tree.chain_bias = get_number(*bias, where + ".chain_bias");
    if (tree.chain_bias < 0.0 || tree.chain_bias > 1.0) {
      fail(where + ".chain_bias must be in [0, 1]");
    }
  }
  return tree;
}

GraphSpec parse_graph(const JsonValue& v, const std::string& where) {
  if (!v.is_object()) fail(where + " must be an object");
  check_known_keys(v, where, {"families", "sizes", "graph_seed"});
  GraphSpec graph;
  const JsonValue* families = v.find("families");
  if (families == nullptr) fail(where + ".families is required");
  graph.families = get_string_list(*families, where + ".families");
  for (const std::string& f : graph.families) {
    if (!valid_graph_family(f)) {
      fail(where + ": unknown graph family '" + f + "'");
    }
  }
  const JsonValue* sizes = v.find("sizes");
  if (sizes == nullptr) fail(where + ".sizes is required");
  graph.sizes = get_uint_list(*sizes, where + ".sizes");
  for (const std::size_t s : graph.sizes) {
    if (s < 2) fail(where + ".sizes entries must be >= 2");
  }
  if (const JsonValue* seed = v.find("graph_seed")) {
    graph.graph_seed = get_uint(*seed, where + ".graph_seed");
  }
  return graph;
}

Scenario parse_scenario(const JsonValue& v, std::size_t index) {
  const std::string where = "scenarios[" + std::to_string(index) + "]";
  if (!v.is_object()) fail(where + " must be an object");
  check_known_keys(v, where,
                   {"protocols", "tree", "graph", "range", "eps", "update",
                    "engine", "iteration_mode", "n", "t", "adversaries",
                    "inputs"});
  Scenario s;

  const JsonValue* protocols = v.find("protocols");
  if (protocols == nullptr) fail(where + ".protocols is required");
  for (const std::string& name :
       get_string_list(*protocols, where + ".protocols")) {
    s.protocols.push_back(protocol_from_name(name));
  }
  const ProtocolFamily pf = family_of(s.protocols.front());
  for (const Protocol p : s.protocols) {
    if (family_of(p) != pf) {
      fail(where +
           ": protocols must be all tree-valued, all real-valued, or all "
           "graph-valued");
    }
  }
  const bool vertex = pf == ProtocolFamily::kVertex;
  const bool graph = pf == ProtocolFamily::kGraph;

  if (const JsonValue* tree = v.find("tree")) {
    if (!vertex) fail(where + ": 'tree' only applies to tree protocols");
    s.tree = parse_tree(*tree, where + ".tree");
  } else if (vertex) {
    fail(where + ".tree is required for tree protocols");
  }

  if (const JsonValue* g = v.find("graph")) {
    if (!graph) fail(where + ": 'graph' only applies to graph protocols");
    s.graph = parse_graph(*g, where + ".graph");
  } else if (graph) {
    fail(where + ".graph is required for graph protocols");
  }

  if (const JsonValue* range = v.find("range")) {
    if (vertex || graph) {
      fail(where + ": 'range' only applies to real protocols");
    }
    s.ranges = get_number_list(*range, where + ".range");
    for (const double d : s.ranges) {
      if (!(d > 0)) fail(where + ".range entries must be > 0");
    }
  } else if (!vertex && !graph) {
    fail(where + ".range is required for real protocols");
  }

  if (const JsonValue* eps = v.find("eps")) {
    if (vertex || graph) {
      fail(where + ": 'eps' only applies to real protocols");
    }
    s.eps = get_number_list(*eps, where + ".eps");
    for (const double e : s.eps) {
      if (!(e > 0)) fail(where + ".eps entries must be > 0");
    }
  }

  if (const JsonValue* update = v.find("update")) {
    s.updates.clear();
    for (const std::string& name :
         get_string_list(*update, where + ".update")) {
      if (name == "trimmed_mean") {
        s.updates.push_back(realaa::UpdateRule::kTrimmedMean);
      } else if (name == "trimmed_midpoint") {
        s.updates.push_back(realaa::UpdateRule::kTrimmedMidpoint);
      } else {
        fail(where + ": unknown update rule '" + name + "'");
      }
    }
  }

  if (const JsonValue* engine = v.find("engine")) {
    s.engines.clear();
    for (const std::string& name :
         get_string_list(*engine, where + ".engine")) {
      if (name == "bdh") {
        s.engines.push_back(core::RealEngineKind::kGradecastBdh);
      } else if (name == "classic") {
        s.engines.push_back(core::RealEngineKind::kClassicHalving);
      } else {
        fail(where + ": unknown engine '" + name + "'");
      }
    }
  }

  if (const JsonValue* mode = v.find("iteration_mode")) {
    if (!mode->is_string()) fail(where + ".iteration_mode must be a string");
    if (mode->as_string() == "paper") {
      s.mode = realaa::IterationMode::kPaperSufficient;
    } else if (mode->as_string() == "tight") {
      s.mode = realaa::IterationMode::kTight;
    } else {
      fail(where + ": unknown iteration_mode '" + mode->as_string() + "'");
    }
  }

  const JsonValue* n = v.find("n");
  if (n == nullptr) fail(where + ".n is required");
  s.n_values = get_uint_list(*n, where + ".n");
  for (const std::size_t nv : s.n_values) {
    if (nv < 4) fail(where + ".n entries must be >= 4");
  }

  if (const JsonValue* t = v.find("t")) {
    if (t->is_string()) {
      if (t->as_string() != "max") {
        fail(where + ".t must be \"max\" or an array of integers");
      }
      // Empty t_values already means "max".
    } else {
      s.t_values = get_uint_list(*t, where + ".t");
    }
  }

  if (const JsonValue* adversaries = v.find("adversaries")) {
    s.adversaries.clear();
    for (const std::string& name :
         get_string_list(*adversaries, where + ".adversaries")) {
      s.adversaries.push_back(adversary_from_name(name));
    }
  }

  if (const JsonValue* inputs = v.find("inputs")) {
    if (!inputs->is_string()) fail(where + ".inputs must be a string");
    if (inputs->as_string() == "spread") {
      s.inputs = InputKind::kSpread;
    } else if (inputs->as_string() == "random") {
      s.inputs = InputKind::kRandom;
    } else {
      fail(where + ": unknown inputs '" + inputs->as_string() + "'");
    }
  }

  return s;
}

}  // namespace

const char* input_kind_name(InputKind k) {
  return k == InputKind::kSpread ? "spread" : "random";
}

SweepSpec spec_from_json(std::string_view text) {
  const auto doc = JsonValue::parse(text);
  if (!doc.has_value()) fail("malformed JSON");
  if (!doc->is_object()) fail("top level must be an object");
  check_known_keys(*doc, "spec", {"name", "seed", "repeats", "scenarios"});

  SweepSpec spec;
  const JsonValue* name = doc->find("name");
  if (name == nullptr || !name->is_string() || name->as_string().empty()) {
    fail("'name' (non-empty string) is required");
  }
  spec.name = name->as_string();
  if (const JsonValue* seed = doc->find("seed")) {
    spec.seed = get_uint(*seed, "seed");
  }
  if (const JsonValue* repeats = doc->find("repeats")) {
    spec.repeats = static_cast<std::size_t>(get_uint(*repeats, "repeats"));
    if (spec.repeats == 0) fail("repeats must be >= 1");
  }
  const JsonValue* scenarios = doc->find("scenarios");
  if (scenarios == nullptr || !scenarios->is_array() ||
      scenarios->items().empty()) {
    fail("'scenarios' (non-empty array) is required");
  }
  for (std::size_t i = 0; i < scenarios->items().size(); ++i) {
    spec.scenarios.push_back(parse_scenario(scenarios->items()[i], i));
  }
  // Surface grid errors (n <= 3t, adversary mismatches, cell explosions) at
  // parse time rather than first expansion.
  (void)expand(spec);
  return spec;
}

std::vector<Cell> expand(const SweepSpec& spec) {
  constexpr std::size_t kMaxCells = 100000;
  std::vector<Cell> cells;

  for (std::size_t si = 0; si < spec.scenarios.size(); ++si) {
    const Scenario& s = spec.scenarios[si];
    const std::string where = "scenarios[" + std::to_string(si) + "]";
    if (s.protocols.empty()) fail(where + ": no protocols");

    for (const Protocol protocol : s.protocols) {
      const bool vertex = is_vertex_protocol(protocol);
      const bool graph = is_graph_protocol(protocol);
      const bool real = !vertex && !graph;
      // Axes that do not apply to this protocol collapse to one default
      // entry so they never multiply its cells. (block_aa's engine/update
      // axes collapse too: its inner TreeAA always runs the defaults.)
      const std::vector<core::RealEngineKind> engines =
          protocol == Protocol::kTreeAA
              ? s.engines
              : std::vector<core::RealEngineKind>{
                    core::RealEngineKind::kGradecastBdh};
      const std::vector<std::string> families =
          vertex ? s.tree->families
                 : graph ? s.graph->families : std::vector<std::string>{""};
      const std::vector<std::size_t> sizes =
          vertex ? s.tree->sizes
                 : graph ? s.graph->sizes : std::vector<std::size_t>{0};
      const std::vector<double> ranges =
          real ? s.ranges : std::vector<double>{0.0};
      const std::vector<double> eps =
          real ? s.eps : std::vector<double>{1.0};
      const std::vector<realaa::UpdateRule> updates =
          protocol == Protocol::kTreeAA || protocol == Protocol::kRealAA
              ? s.updates
              : std::vector<realaa::UpdateRule>{
                    realaa::UpdateRule::kTrimmedMean};

      for (const core::RealEngineKind engine : engines) {
        for (const std::string& family : families) {
          for (const std::size_t size : sizes) {
            for (const double range : ranges) {
              for (const double e : eps) {
                for (const realaa::UpdateRule update : updates) {
                  for (const std::size_t n : s.n_values) {
                    std::vector<std::size_t> ts = s.t_values;
                    if (ts.empty()) ts.push_back((n - 1) / 3);
                    for (const std::size_t t : ts) {
                      // The shared checker's details spell the historical
                      // messages; expansion adds the scenario context.
                      if (const auto issue =
                              harness::validate_axes(protocol, n, t);
                          issue.has_value()) {
                        fail(where + ": " + issue->detail);
                      }
                      for (const AdversaryKind adversary : s.adversaries) {
                        if (const auto issue = harness::validate_axes(
                                protocol, n, t, adversary);
                            issue.has_value()) {
                          fail(where + ": " + issue->detail);
                        }
                        for (std::size_t repeat = 0; repeat < spec.repeats;
                             ++repeat) {
                          Cell cell;
                          cell.index = cells.size();
                          cell.scenario = si;
                          cell.protocol = protocol;
                          if (vertex) {
                            cell.family = family;
                            cell.tree_size = size;
                            cell.tree_seed = s.tree->tree_seed;
                            cell.chain_bias = s.tree->chain_bias;
                          } else if (graph) {
                            cell.family = family;
                            cell.tree_size = size;
                            cell.tree_seed = s.graph->graph_seed;
                          }
                          cell.engine = engine;
                          cell.known_range = range;
                          cell.eps = e;
                          cell.update = update;
                          cell.mode = s.mode;
                          cell.n = n;
                          cell.t = t;
                          cell.adversary = adversary;
                          cell.inputs = s.inputs;
                          cell.repeat = repeat;
                          cells.push_back(std::move(cell));
                          if (cells.size() > kMaxCells) {
                            fail("grid exceeds " + std::to_string(kMaxCells) +
                                 " cells");
                          }
                        }
                      }
                    }
                  }
                }
              }
            }
          }
        }
      }
    }
  }
  return cells;
}

}  // namespace treeaa::exp

// E5 — PathsFinder (paper Lemma 4 + Figure 4).
//
// Regenerates:
//   Table E5a: R_PathsFinder measured vs the Lemma 4 budget
//     R_RealAA(2|V(T)|, 1) across tree families and sizes.
//   Table E5b: how often the honest parties end up with *different* (but
//     one-edge-apart) paths under the split adversary — the situation the
//     "wait until round R_PathsFinder" synchronization and the Figure 5
//     clamp exist for. Without an adversary the paths always coincide; the
//     attack makes genuine one-edge splits appear.
#include <algorithm>
#include <iostream>
#include <set>

#include "common/table.h"
#include "core/paths_finder.h"
#include "harness/runner.h"
#include "perf/tree_index.h"
#include "realaa/adversaries.h"
#include "realaa/rounds.h"
#include "trees/generators.h"

namespace {

using namespace treeaa;

void table_e5a() {
  std::cout << "=== E5a: R_PathsFinder vs the Lemma 4 budget (n = 7, t = 2) "
               "===\n";
  Table table({"family", "|V|", "rounds", "R_RealAA(2|V|,1) bound"});
  Rng rng(5);
  for (const TreeFamily family : all_tree_families()) {
    for (std::size_t size : {16u, 256u, 4096u}) {
      const auto tree = make_family_tree(family, size, rng);
      const auto inputs = harness::spread_vertex_inputs(tree, 7);
      const auto run = harness::run_paths_finder(tree, 7, 2, inputs);
      table.row({tree_family_name(family), std::to_string(tree.n()),
                 std::to_string(run.rounds),
                 std::to_string(realaa::theorem3_round_bound(
                     static_cast<double>(2 * tree.n()), 1.0))});
    }
  }
  std::cout << render_for_output(table) << "\n";
}

void table_e5b() {
  // A genuine path split needs an inconsistency in *every* RealAA
  // iteration: any clean iteration collapses the honest values to a single
  // point (identical multisets => identical trimmed means). That is exactly
  // Fekete's budget structure — the adversary must afford one fresh
  // equivocator per iteration, so we give it n = 22, t = 7 >= R.
  std::cout << "=== E5b: path splits under the split adversary (n = 22, "
               "t = 7, one equivocator per iteration, random trees) ===\n";
  Table table({"|V|", "runs", "identical paths", "one-edge splits",
               "lemma4 violations"});
  for (std::size_t size : {20u, 100u, 500u}) {
    std::size_t identical = 0, splits = 0, violations = 0;
    const std::size_t runs = 20;
    for (std::size_t trial = 0; trial < runs; ++trial) {
      Rng rng(1000 * size + trial);
      const auto tree = make_random_tree(size, rng);
      const std::size_t n = 22, t = 7;
      const auto inputs = harness::spread_vertex_inputs(tree, n);
      realaa::SplitAdversary::Options opts;
      opts.config = core::paths_finder_config(tree, n, t, {});
      for (std::size_t i = 0; i < t; ++i) {
        opts.corrupt.push_back(static_cast<PartyId>(n - 1 - i));
      }
      opts.schedule.assign(opts.config.iterations(), 1);
      auto run = harness::run_paths_finder(
          tree, n, t, inputs,
          std::make_unique<realaa::SplitAdversary>(opts));
      const auto paths = run.honest_paths();
      std::set<std::size_t> lengths;
      std::set<VertexId> tips;
      for (const auto& p : paths) {
        lengths.insert(p.size());
        tips.insert(p.back());
      }
      if (tips.size() == 1) {
        ++identical;
      } else if (tips.size() == 2 && lengths.size() == 2) {
        ++splits;
      } else {
        ++violations;
      }
      // Double-check Lemma 4 property 1.
      std::vector<VertexId> honest_inputs;
      for (PartyId p = 0; p < n; ++p) {
        if (std::find(run.corrupt.begin(), run.corrupt.end(), p) ==
            run.corrupt.end()) {
          honest_inputs.push_back(inputs[p]);
        }
      }
      const perf::TreeIndex index(tree);
      for (const auto& p : paths) {
        const bool hits = std::any_of(
            p.begin(), p.end(),
            [&](VertexId v) { return index.in_hull(honest_inputs, v); });
        if (!hits) ++violations;
      }
    }
    table.row({std::to_string(size), std::to_string(runs),
               std::to_string(identical), std::to_string(splits),
               std::to_string(violations)});
  }
  std::cout << render_for_output(table)
            << "(violations must be 0; splits demonstrate the Figure 5 "
               "scenario exists)\n";
}

}  // namespace

int main() {
  table_e5a();
  table_e5b();
  return 0;
}

#include "hunt/search.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <stdexcept>
#include <utility>

#include "bounds/fekete.h"
#include "exp/ledger.h"
#include "exp/scheduler.h"
#include "obs/report.h"

namespace treeaa::hunt {

namespace {

using harness::AdversaryKind;
using harness::AdversarySpec;

constexpr double kFailedScore = -std::numeric_limits<double>::infinity();

/// Orders candidates best-first: score descending, canonical JSON ascending
/// on ties — never by discovery order, which would leak scheduling.
bool better(double score, const std::string& json, const Candidate& than) {
  if (score != than.score) return score > than.score;
  return json < than.spec_json;
}

}  // namespace

const char* objective_name(Objective o) {
  switch (o) {
    case Objective::kRoundsToEps: return "rounds_to_eps";
    case Objective::kFinalSpread: return "final_spread";
    case Objective::kLedgerMargin: return "ledger_margin";
  }
  return "?";
}

std::optional<Objective> objective_from_name(std::string_view name) {
  for (const Objective o : {Objective::kRoundsToEps, Objective::kFinalSpread,
                            Objective::kLedgerMargin}) {
    if (name == objective_name(o)) return o;
  }
  return std::nullopt;
}

double objective_score(const Evaluation& e, Objective o) {
  if (!e.ok) return kFailedScore;
  switch (o) {
    case Objective::kRoundsToEps:
      return static_cast<double>(e.rounds_to_eps);
    case Objective::kFinalSpread:
      return e.final_spread;
    case Objective::kLedgerMargin:
      return e.ledger_margin;
  }
  return kFailedScore;
}

Evaluation evaluate_spec(const MaterializedScenario& scenario,
                         const AdversarySpec& spec) {
  Evaluation e;
  const Scenario& s = scenario.scenario;

  AdversarySpec resolved = spec;
  // split_config is scenario state, never part of the searched point (or
  // the corpus wire form) — always the scenario's.
  resolved.split_config = scenario.split_config;

  obs::RunReport report;
  obs::Hooks hooks;
  hooks.report = &report;

  harness::RunSpec rs = run_spec(scenario);
  rs.hooks = &hooks;

  harness::RunOutcome outcome;
  try {
    rs.adversary = harness::make_adversary(resolved);
    outcome = harness::run_protocol(rs);
  } catch (const std::exception& ex) {
    e.error = ex.what();
    return e;
  }

  e.rounds = outcome.rounds;

  // First round with honest diameter at or under the target; budget + 1
  // when the run never contracts that far (so "never converged" scores
  // strictly worse-for-the-protocol than any converging round).
  e.rounds_to_eps = scenario.round_budget + 1;
  for (const auto& sample : report.per_round) {
    if (sample.value_diameter.has_value() &&
        *sample.value_diameter <= scenario.target_eps) {
      e.rounds_to_eps = sample.round;
      break;
    }
  }

  const std::size_t fekete = bounds::lower_bound_rounds(
      scenario.d0 / scenario.target_eps, s.n, s.t);
  e.ledger_margin =
      static_cast<double>(e.rounds_to_eps) - static_cast<double>(fekete);
  if (const auto in = exp::ledger_input_from_report(report)) {
    e.ledger_violations = exp::build_ledger(*in).violations;
  }

  const harness::Verdict verdict = harness::check_outcome(rs, outcome);
  e.validity = verdict.valid;
  e.agreement = verdict.agreement;
  e.final_spread = verdict.spread;
  e.ok = true;
  return e;
}

std::string coverage_bucket(const AdversarySpec& spec) {
  std::string key = harness::adversary_name(spec.kind);
  key += "|v=" + std::to_string(spec.victims.size());
  if (spec.kind == AdversaryKind::kSplit) {
    key += spec.split_schedule.empty()
               ? "|s=even"
               : "|s=" + std::to_string(spec.split_schedule.size());
  }
  if (spec.kind == AdversaryKind::kFuzz) {
    key += "|m=" + std::to_string((spec.fuzz_messages + 15) / 16);
  }
  key += "|c=" + std::to_string(spec.crashes.size());
  return key;
}

HuntResult run_hunt(const MaterializedScenario& scenario,
                    const HuntOptions& options) {
  if (options.population == 0) {
    throw std::invalid_argument("hunt population must be positive");
  }

  const Scenario& s = scenario.scenario;
  std::vector<AdversaryKind> kinds;
  if (options.kinds.empty()) {
    for (const AdversaryKind k : harness::all_adversaries()) {
      if (harness::adversary_applies(s.protocol, k)) kinds.push_back(k);
    }
  } else {
    for (const AdversaryKind k : options.kinds) {
      if (harness::adversary_applies(s.protocol, k)) kinds.push_back(k);
    }
  }
  if (kinds.empty()) {
    throw std::invalid_argument(
        "no requested adversary kind applies to the scenario's protocol");
  }

  harness::AdversarySpace space;
  space.n = s.n;
  space.t = s.t;
  space.iterations = scenario.iterations;
  space.rounds = scenario.round_budget;
  space.kinds = kinds;
  space.allow_crashes = options.allow_crashes;
  space.split_config = scenario.split_config;

  Rng rng(options.seed);

  std::vector<AdversarySpec> pop = space.fixed_points();
  const std::size_t fixed_count = std::min(pop.size(), options.population);
  pop.resize(fixed_count);
  while (pop.size() < options.population) pop.push_back(space.sample(rng));

  HuntResult result;
  // Dedup cache and coverage books. std::map so every iteration order in
  // this function is a pure function of keys, never of insertion order.
  std::map<std::string, Evaluation> cache;
  std::map<std::string, std::size_t> coverage_counts;
  std::map<std::string, Candidate> bucket_best;
  std::set<std::string> counted;
  bool have_best = false;

  for (std::size_t gen = 0; gen < options.generations; ++gen) {
    std::vector<std::string> jsons(pop.size());
    for (std::size_t i = 0; i < pop.size(); ++i) {
      jsons[i] = harness::adversary_spec_to_json(pop[i]);
    }

    // Fresh unique specs fan out through the scheduler; each slot writes
    // only its own index, so the merge below is scheduling-independent.
    std::vector<std::size_t> fresh;
    {
      std::set<std::string> in_flight;
      for (std::size_t i = 0; i < pop.size(); ++i) {
        if (cache.find(jsons[i]) == cache.end() &&
            in_flight.insert(jsons[i]).second) {
          fresh.push_back(i);
        }
      }
    }
    std::vector<Evaluation> evals(fresh.size());
    exp::parallel_for(fresh.size(),
                      exp::ScheduleOptions{options.threads, 0},
                      [&](std::size_t k) {
                        evals[k] = evaluate_spec(scenario, pop[fresh[k]]);
                      });
    for (std::size_t k = 0; k < fresh.size(); ++k) {
      cache.emplace(jsons[fresh[k]], std::move(evals[k]));
    }
    result.evaluations += fresh.size();
    result.duplicates += pop.size() - fresh.size();

    GenerationStats gs;
    gs.generation = gen;
    gs.evaluated = fresh.size();
    gs.cached = pop.size() - fresh.size();

    double sum = 0.0;
    std::size_t scored = 0;
    for (std::size_t i = 0; i < pop.size(); ++i) {
      const Evaluation& e = cache.at(jsons[i]);
      const double score = objective_score(e, options.objective);
      if (e.ok) {
        sum += score;
        ++scored;
      }
      if (!counted.insert(jsons[i]).second) continue;  // seen before

      const std::string bucket = coverage_bucket(pop[i]);
      const auto [it, new_bucket] = coverage_counts.try_emplace(bucket, 0);
      ++it->second;
      if (new_bucket) ++gs.new_buckets;
      if (!e.ok) continue;

      Candidate cand;
      cand.spec = pop[i];
      cand.spec_json = jsons[i];
      cand.eval = e;
      cand.score = score;
      cand.generation = gen;
      const auto best_it = bucket_best.find(bucket);
      if (best_it == bucket_best.end() ||
          better(score, cand.spec_json, best_it->second)) {
        bucket_best.insert_or_assign(bucket, cand);
      }
      if (!have_best || better(score, cand.spec_json, result.best)) {
        result.best = std::move(cand);
        have_best = true;
      }
    }
    gs.best_score = have_best ? result.best.score : 0.0;
    gs.mean_score = scored > 0 ? sum / static_cast<double>(scored) : 0.0;
    gs.best_json = have_best ? result.best.spec_json : "";
    result.generations.push_back(gs);

    if (gen == 0) {
      // The named library strategies are the head of generation 0; their
      // scores are the baselines the search must match or beat.
      for (std::size_t i = 0; i < fixed_count; ++i) {
        result.baselines.emplace_back(
            harness::adversary_name(pop[i].kind),
            objective_score(cache.at(jsons[i]), options.objective));
      }
    }

    if (gen + 1 == options.generations) break;

    // Selection pool: this generation's unique successful candidates,
    // best-first. Tournament of two uniform picks over a sorted pool is
    // just min(i, j).
    struct Ranked {
      double score;
      const std::string* json;
      const AdversarySpec* spec;
    };
    std::vector<Ranked> ranked;
    {
      std::set<std::string> pool_seen;
      for (std::size_t i = 0; i < pop.size(); ++i) {
        if (!pool_seen.insert(jsons[i]).second) continue;
        const Evaluation& e = cache.at(jsons[i]);
        if (!e.ok) continue;
        ranked.push_back(Ranked{objective_score(e, options.objective),
                                &jsons[i], &pop[i]});
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const Ranked& a, const Ranked& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return *a.json < *b.json;
                });
    }
    const auto pick = [&]() {
      const std::size_t i = rng.index(ranked.size());
      const std::size_t j = rng.index(ranked.size());
      return std::min(i, j);
    };

    std::vector<AdversarySpec> next;
    for (std::size_t i = 0; i < std::min(options.elites, ranked.size());
         ++i) {
      next.push_back(*ranked[i].spec);
    }
    while (next.size() < options.population) {
      if (ranked.empty()) {
        next.push_back(space.sample(rng));
      } else if (ranked.size() >= 2 && rng.chance(0.5)) {
        const std::size_t a = pick();
        const std::size_t b = pick();
        next.push_back(space.crossover(*ranked[a].spec, *ranked[b].spec, rng));
      } else {
        next.push_back(space.mutate(*ranked[pick()].spec, rng));
      }
    }
    pop = std::move(next);
  }

  for (const auto& [bucket, cand] : bucket_best) {
    result.corpus.push_back(cand);
  }
  std::sort(result.corpus.begin(), result.corpus.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.spec_json < b.spec_json;
            });
  if (result.corpus.size() > options.corpus_max) {
    result.corpus.resize(options.corpus_max);
  }
  for (const auto& [bucket, count] : coverage_counts) {
    result.coverage.emplace_back(bucket, count);
  }
  return result;
}

}  // namespace treeaa::hunt

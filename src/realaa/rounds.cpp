#include "realaa/rounds.h"

#include <cmath>

#include "common/check.h"
#include "common/types.h"

namespace treeaa::realaa {

namespace {

/// R^R >= delta, computed in log space to survive huge deltas.
bool r_pow_r_at_least(std::size_t r, double delta) {
  const double rd = static_cast<double>(r);
  return rd * std::log(rd) >= std::log(delta);
}

}  // namespace

std::size_t iterations_paper_sufficient(double D, double eps) {
  TREEAA_REQUIRE(D >= 0 && eps > 0);
  const double delta = D / eps;
  if (delta <= 1.0) return 0;
  std::size_t r = 1;
  while (!r_pow_r_at_least(r, delta)) ++r;
  return r;
}

std::size_t iterations_tight(double D, double eps, std::size_t n,
                             std::size_t t) {
  TREEAA_REQUIRE(D >= 0 && eps > 0);
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t), "RealAA requires t < n/3");
  const double delta = D / eps;
  if (delta <= 1.0) return 0;
  if (t == 0) return 1;  // no inconsistencies possible: one averaging round
  const double log_f_base =
      std::log(static_cast<double>(t)) -
      std::log(static_cast<double>(n - 2 * t));
  // Find the smallest R with R * (log_f_base - log R) <= -log(delta).
  const double target = -std::log(delta);
  std::size_t r = 1;
  while (static_cast<double>(r) *
             (log_f_base - std::log(static_cast<double>(r))) >
         target) {
    ++r;
  }
  return r;
}

std::size_t iterations_for(IterationMode mode, double D, double eps,
                           std::size_t n, std::size_t t) {
  switch (mode) {
    case IterationMode::kPaperSufficient:
      return iterations_paper_sufficient(D, eps);
    case IterationMode::kTight:
      return iterations_tight(D, eps, n, t);
  }
  TREEAA_CHECK_MSG(false, "unknown iteration mode");
  return 0;
}

std::size_t theorem3_round_bound(double D, double eps) {
  TREEAA_REQUIRE(D >= 0 && eps > 0);
  const double delta = D / eps;
  if (delta <= 1.0) return 0;
  // Guard the degenerate denominator: for log2(delta) <= 2 the formula's
  // denominator is <= 1; clamp at the delta = 4 value, which upper-bounds
  // the protocol there (it needs at most 6 rounds for delta <= 4).
  const double L = std::max(2.0, std::log2(delta));
  const double denom = std::max(1.0, std::log2(L));
  return static_cast<std::size_t>(std::ceil(7.0 * L / denom));
}

}  // namespace treeaa::realaa

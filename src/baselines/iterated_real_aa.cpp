#include "baselines/iterated_real_aa.h"

#include <cmath>

#include "common/check.h"
#include "realaa/real_aa.h"
#include "realaa/wire.h"

namespace treeaa::baselines {

std::size_t IteratedRealConfig::iterations() const {
  TREEAA_REQUIRE(known_range >= 0 && eps > 0);
  const double delta = known_range / eps;
  if (delta <= 1.0) return 0;
  return static_cast<std::size_t>(std::ceil(std::log2(delta)));
}

IteratedRealAAProcess::IteratedRealAAProcess(const IteratedRealConfig& config,
                                             PartyId self, double input)
    : config_(config),
      iterations_(config.iterations()),
      self_(self),
      value_(input) {
  TREEAA_REQUIRE(fault_bound_holds(config.n, config.t));
  TREEAA_REQUIRE(self < config.n);
  history_.push_back(value_);
  if (iterations_ == 0) output_ = value_;
}

void IteratedRealAAProcess::on_round_begin(Round, sim::Mailer& out) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  if (step == 0) {
    batch_.emplace(self_, config_.n, config_.t,
                   realaa::encode_value(value_));
  }
  batch_->on_step_begin(step, out);
}

void IteratedRealAAProcess::on_round_end(Round,
                                         std::span<const sim::Envelope> inbox) {
  if (output_.has_value()) return;
  const std::size_t step = local_round_ % gradecast::kRounds;
  batch_->on_step_end(step, inbox);
  ++local_round_;
  if (step == gradecast::kRounds - 1) finish_iteration();
}

void IteratedRealAAProcess::finish_iteration() {
  std::vector<double> w;
  w.reserve(config_.n);
  for (const gradecast::GradedValue& gv : batch_->results()) {
    if (gv.grade < 1) continue;
    const auto value = realaa::decode_value(*gv.value);
    if (value.has_value()) w.push_back(*value);
  }
  TREEAA_CHECK(w.size() > 2 * config_.t);
  value_ = realaa::trimmed_update(std::move(w), config_.t,
                                  realaa::UpdateRule::kTrimmedMidpoint);
  history_.push_back(value_);
  if (history_.size() == iterations_ + 1) output_ = value_;
  batch_.reset();
}

}  // namespace treeaa::baselines

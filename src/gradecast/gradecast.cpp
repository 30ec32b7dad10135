#include "gradecast/gradecast.h"

#include <algorithm>

#include "common/check.h"
#include "gradecast/wire.h"

namespace treeaa::gradecast {

namespace {

bool view_eq(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

}  // namespace

BatchGradecast::BatchGradecast(PartyId self, std::size_t n, std::size_t t,
                               Bytes my_value, std::vector<bool> deny)
    : self_(self),
      n_(n),
      t_(t),
      my_value_(std::move(my_value)),
      deny_(std::move(deny)) {
  TREEAA_REQUIRE(self < n);
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t), "gradecast requires t < n/3");
  if (deny_.empty()) deny_.assign(n, false);
  TREEAA_REQUIRE(deny_.size() == n);
  leader_values_.assign(n, std::nullopt);
  my_supports_.assign(n, std::nullopt);
  counted_.resize(n);
  tallies_.resize(n);
  // Step 2 keeps the most counters per leader (see on_step_end).
  counters_.resize(n * (n / (t + 1) + 1));
}

void BatchGradecast::fold(PartyId l, ByteView value) {
  Counter* const c = counters_.data() + static_cast<std::size_t>(l) * k_;
  Tally& tally = tallies_[l];
  std::size_t& live = tally.live;
  for (std::size_t i = 0; i < live; ++i) {
    if (view_eq(c[i].value, value)) {
      ++c[i].count;
      return;
    }
  }
  if (live < k_) {
    c[live++] = Counter{value, 1};
    return;
  }
  // All k counters hold other values: the new value and one occurrence of
  // each of them cancel out. Counters reaching 0 are freed.
  tally.exact = false;
  for (std::size_t i = 0; i < live;) {
    if (--c[i].count == 0) {
      c[i] = c[--live];
    } else {
      ++i;
    }
  }
}

void BatchGradecast::tally_round(std::uint8_t tag,
                                 std::span<const sim::Envelope> inbox,
                                 std::size_t k, bool skip_denied) {
  k_ = k;
  std::fill(counted_.begin(), counted_.end(), nullptr);
  std::fill(tallies_.begin(), tallies_.end(), Tally{});
  for (const sim::Envelope& e : inbox) {
    if (e.from >= n_ || counted_[e.from] != nullptr) continue;
    const std::optional<SlotRow> row = decode_slots(tag, e.payload, n_,
                                                    scratch_);
    if (!row.has_value()) continue;
    counted_[e.from] = &e;
    for (PartyId l = 0; l < n_; ++l) {
      const SlotView slot = (*row)[l];
      if (slot.has_value() && !(skip_denied && deny_[l])) fold(l, *slot);
    }
  }

  bool all_exact = true;
  for (PartyId l = 0; l < n_; ++l) {
    const Tally& tally = tallies_[l];
    if (tally.exact) continue;
    all_exact = false;
    Counter* const c = counters_.data() + static_cast<std::size_t>(l) * k_;
    for (std::size_t i = 0; i < tally.live; ++i) c[i].count = 0;
  }
  if (all_exact) return;
  for (const sim::Envelope* e : counted_) {
    if (e == nullptr) continue;
    const std::optional<SlotRow> row = decode_slots(tag, e->payload, n_,
                                                    scratch_);
    TREEAA_CHECK(row.has_value());
    for (PartyId l = 0; l < n_; ++l) {
      if (tallies_[l].exact) continue;
      const SlotView slot = (*row)[l];
      if (!slot.has_value()) continue;
      Counter* const c = counters_.data() + static_cast<std::size_t>(l) * k_;
      for (std::size_t i = 0; i < tallies_[l].live; ++i) {
        if (view_eq(c[i].value, *slot)) {
          ++c[i].count;
          break;
        }
      }
    }
  }
}

const BatchGradecast::Counter* BatchGradecast::best(PartyId l) const {
  const Counter* const c = counters_.data() + static_cast<std::size_t>(l) * k_;
  const Counter* best = nullptr;
  for (std::size_t i = 0; i < tallies_[l].live; ++i) {
    if (best == nullptr || c[i].count > best->count ||
        (c[i].count == best->count &&
         std::lexicographical_compare(c[i].value.begin(), c[i].value.end(),
                                      best->value.begin(),
                                      best->value.end()))) {
      best = &c[i];
    }
  }
  return best;
}

void BatchGradecast::on_step_begin(std::size_t step, sim::Mailer& out) {
  TREEAA_REQUIRE_MSG(step == next_step_, "gradecast steps must run in order");
  switch (step) {
    case 0:
      out.broadcast(encode_leader(my_value_));
      break;
    case 1:
      // Echo, per leader, the value received from that leader (⊥ slots for
      // leaders we heard nothing valid from or that we deny).
      out.broadcast(encode_slots(kTagEcho, leader_values_, deny_));
      break;
    case 2:
      out.broadcast(encode_slots(kTagSupport, my_supports_));
      break;
    default:
      TREEAA_REQUIRE_MSG(false, "gradecast has exactly 3 steps");
  }
}

void BatchGradecast::on_step_end(std::size_t step,
                                 std::span<const sim::Envelope> inbox) {
  TREEAA_REQUIRE_MSG(step == next_step_, "gradecast steps must run in order");
  switch (step) {
    case 0: {
      // Per sender, keep the first message that decodes as a LEADER value;
      // malformed attempts do not shadow a later valid one.
      std::fill(counted_.begin(), counted_.end(), nullptr);
      for (const sim::Envelope& e : inbox) {
        if (e.from >= n_ || counted_[e.from] != nullptr) continue;
        const auto value = decode_leader_view(e.payload);
        if (value.has_value()) {
          counted_[e.from] = &e;
          leader_values_[e.from] = Bytes(value->begin(), value->end());
        }
      }
      break;
    }
    case 1: {
      // For each leader: support the (necessarily unique) value echoed by at
      // least n - t parties. Uniqueness: two distinct values with >= n - t
      // echoes each would need 2(n - t) <= n echoers, i.e. n <= 2t,
      // contradicting t < n/3. Such a value is a strict majority of the
      // m <= n present slots (n - t > n/2 >= m/2), so one counter — a
      // Boyer–Moore majority vote — is enough to find it.
      tally_round(kTagEcho, inbox, 1, /*skip_denied=*/true);
      for (PartyId l = 0; l < n_; ++l) {
        if (deny_[l]) continue;  // never support a denied leader
        const Counter* const c = best(l);
        if (c != nullptr && c->count >= n_ - t_) {
          my_supports_[l] = Bytes(c->value.begin(), c->value.end());
        }
      }
      break;
    }
    case 2: {
      // The value with the most supporters; all honest supporters agree on
      // one value (see step 1), so >= t + 1 supports pins a unique value.
      // Only a value with >= t + 1 of the m <= n present slots can be
      // returned, and Misra–Gries with floor(n / (t + 1)) + 1 counters
      // keeps every such value, so the best survivor is the best value
      // overall. Ties break to the lexicographically smallest value.
      tally_round(kTagSupport, inbox, n_ / (t_ + 1) + 1,
                  /*skip_denied=*/false);
      results_.assign(n_, GradedValue{});
      for (PartyId l = 0; l < n_; ++l) {
        const Counter* const c = best(l);
        GradedValue& r = results_[l];
        if (c != nullptr && c->count >= n_ - t_) {
          r.value = Bytes(c->value.begin(), c->value.end());
          r.grade = 2;
        } else if (c != nullptr && c->count >= t_ + 1) {
          r.value = Bytes(c->value.begin(), c->value.end());
          r.grade = 1;
        }
      }
      break;
    }
    default:
      TREEAA_REQUIRE_MSG(false, "gradecast has exactly 3 steps");
  }
  ++next_step_;
}

const std::vector<GradedValue>& BatchGradecast::results() const {
  TREEAA_CHECK_MSG(finished(), "gradecast results read before step 3");
  return results_;
}

}  // namespace treeaa::gradecast

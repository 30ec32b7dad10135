#include "gradecast/gradecast.h"

#include <algorithm>

#include "common/check.h"
#include "gradecast/wire.h"

namespace treeaa::gradecast {

namespace {

bool view_less(ByteView a, ByteView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

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
}

void BatchGradecast::decode_slot_round(std::uint8_t tag,
                                       std::span<const sim::Envelope> inbox) {
  slot_matrix_.assign(n_ * n_, std::nullopt);
  sender_valid_.assign(n_, false);
  for (const sim::Envelope& e : inbox) {
    if (e.from >= n_ || sender_valid_[e.from]) continue;
    const std::span<SlotView> row(
        slot_matrix_.data() + static_cast<std::size_t>(e.from) * n_, n_);
    sender_valid_[e.from] = decode_slots_view(tag, e.payload, row);
  }
}

void BatchGradecast::gather_sorted_slots(PartyId l) {
  runs_.clear();
  for (PartyId q = 0; q < n_; ++q) {
    if (!sender_valid_[q]) continue;
    const SlotView& slot = slot_matrix_[static_cast<std::size_t>(q) * n_ + l];
    if (slot.has_value()) runs_.push_back(*slot);
  }
  // Lexicographic ascending — run-length counting over this order visits
  // values exactly as the previous std::map<Bytes, count> iteration did.
  std::sort(runs_.begin(), runs_.end(), view_less);
}

void BatchGradecast::on_step_begin(std::size_t step, sim::Mailer& out) {
  TREEAA_REQUIRE_MSG(step == next_step_, "gradecast steps must run in order");
  switch (step) {
    case 0:
      out.broadcast(encode_leader(my_value_));
      break;
    case 1: {
      // Echo, per leader, the value received from that leader (⊥ slots for
      // leaders we heard nothing valid from or that we deny).
      std::vector<Slot> slots = leader_values_;
      for (PartyId l = 0; l < n_; ++l) {
        if (deny_[l]) slots[l] = std::nullopt;
      }
      out.broadcast(encode_slots(kTagEcho, slots));
      break;
    }
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
      sender_valid_.assign(n_, false);
      for (const sim::Envelope& e : inbox) {
        if (e.from >= n_ || sender_valid_[e.from]) continue;
        const auto value = decode_leader_view(e.payload);
        if (value.has_value()) {
          sender_valid_[e.from] = true;
          leader_values_[e.from] = Bytes(value->begin(), value->end());
        }
      }
      break;
    }
    case 1: {
      decode_slot_round(kTagEcho, inbox);
      // For each leader: support the (necessarily unique) value echoed by at
      // least n - t parties. Uniqueness: two distinct values with >= n - t
      // echoes each would need 2(n - t) <= n echoers, i.e. n <= 2t,
      // contradicting t < n/3.
      for (PartyId l = 0; l < n_; ++l) {
        if (deny_[l]) continue;  // never support a denied leader
        gather_sorted_slots(l);
        for (std::size_t i = 0; i < runs_.size();) {
          std::size_t j = i + 1;
          while (j < runs_.size() && view_eq(runs_[i], runs_[j])) ++j;
          if (j - i >= n_ - t_) {
            my_supports_[l] = Bytes(runs_[i].begin(), runs_[i].end());
            break;
          }
          i = j;
        }
      }
      break;
    }
    case 2: {
      decode_slot_round(kTagSupport, inbox);
      results_.assign(n_, GradedValue{});
      for (PartyId l = 0; l < n_; ++l) {
        gather_sorted_slots(l);
        // The value with the most supporters; all honest supporters agree on
        // one value (see step 1), so >= t + 1 supports pins a unique value.
        // Ties break to the lexicographically smallest value (the ascending
        // scan only replaces on a strictly greater count).
        ByteView best{};
        bool have_best = false;
        std::size_t best_count = 0;
        for (std::size_t i = 0; i < runs_.size();) {
          std::size_t j = i + 1;
          while (j < runs_.size() && view_eq(runs_[i], runs_[j])) ++j;
          if (j - i > best_count) {
            best = runs_[i];
            best_count = j - i;
            have_best = true;
          }
          i = j;
        }
        GradedValue& r = results_[l];
        if (have_best && best_count >= n_ - t_) {
          r.value = Bytes(best.begin(), best.end());
          r.grade = 2;
        } else if (have_best && best_count >= t_ + 1) {
          r.value = Bytes(best.begin(), best.end());
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

#include "gradecast/gradecast.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "gradecast/wire.h"

namespace treeaa::gradecast {

namespace {

bool view_eq(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

// Tally memo entry layout (see publish_tally): [m], then m (sender, stamp
// low, stamp high) triples, then n (position, offset, length, count)
// quadruples.
constexpr std::size_t kSeqWords = 3;
constexpr std::size_t kBestWords = 4;
constexpr std::uint32_t kNoSurvivor = std::numeric_limits<std::uint32_t>::max();

}  // namespace

// Every counted message carries the step's tag and n slots, so an equal
// counted sequence already pins both; k (<= n + 1) is what two tallies of
// the same messages can differ in.
std::uint64_t tally_memo_key(std::uint8_t tag, std::size_t n, std::size_t k) {
  return (static_cast<std::uint64_t>(n) << 32) |
         (static_cast<std::uint64_t>(k) << 8) | tag;
}

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
  seen_.resize(n);
  order_.reserve(n);
  tallies_.resize(n);
  // Step 2 keeps the most counters per leader (see on_step_end).
  counters_.resize(n * (n / (t + 1) + 1));
}

void BatchGradecast::fold(PartyId l, ByteView value, std::uint32_t pos) {
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
    c[live++] = Counter{value, 1, pos};
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
                                 std::size_t k) {
  k_ = k;
  std::fill(seen_.begin(), seen_.end(), false);
  order_.clear();
  for (const sim::Envelope& e : inbox) {
    if (e.from >= n_ || seen_[e.from]) continue;
    if (!decode_slots(tag, e.payload, n_, scratch_).has_value()) continue;
    seen_[e.from] = true;
    order_.push_back(&e);
  }
  if (order_.empty()) {
    std::fill(tallies_.begin(), tallies_.end(), Tally{});
    return;
  }
  bool filled = false;
  const perf::PayloadMemo* memo = order_.front()->payload.memo(
      perf::MemoSlot::kInboxTally, tally_memo_key(tag, n_, k),
      [&](ByteView, std::vector<std::uint32_t>& entry) {
        tally_local(tag);
        publish_tally(entry);
        filled = true;
        return true;
      });
  if (filled || (memo != nullptr && take_tally(memo->index))) return;
  tally_local(tag);
}

void BatchGradecast::tally_local(std::uint8_t tag) {
  std::fill(tallies_.begin(), tallies_.end(), Tally{});
  for (std::uint32_t pos = 0; pos < order_.size(); ++pos) {
    const std::optional<SlotRow> row = decode_slots(
        tag, order_[pos]->payload, n_, scratch_);
    TREEAA_CHECK(row.has_value());
    for (PartyId l = 0; l < n_; ++l) {
      const SlotView slot = (*row)[l];
      if (slot.has_value()) fold(l, *slot, pos);
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
  for (const sim::Envelope* e : order_) {
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

void BatchGradecast::publish_tally(std::vector<std::uint32_t>& entry) const {
  entry.reserve(1 + kSeqWords * order_.size() + kBestWords * n_);
  entry.push_back(static_cast<std::uint32_t>(order_.size()));
  for (const sim::Envelope* e : order_) {
    const std::uint64_t stamp = e->payload.stamp();
    entry.push_back(e->from);
    entry.push_back(static_cast<std::uint32_t>(stamp));
    entry.push_back(static_cast<std::uint32_t>(stamp >> 32));
  }
  for (PartyId l = 0; l < n_; ++l) {
    const Counter* const c = best(l);
    if (c == nullptr) {
      entry.insert(entry.end(), {kNoSurvivor, 0, 0, 0});
      continue;
    }
    const std::uint8_t* const base = order_[c->pos]->payload.data();
    entry.insert(entry.end(),
                 {c->pos, static_cast<std::uint32_t>(c->value.data() - base),
                  static_cast<std::uint32_t>(c->value.size()), c->count});
  }
}

bool BatchGradecast::take_tally(const std::vector<std::uint32_t>& entry) {
  const std::size_t m = order_.size();
  if (entry.size() != 1 + kSeqWords * m + kBestWords * n_ || entry[0] != m) {
    return false;
  }
  const std::uint32_t* seq = entry.data() + 1;
  for (const sim::Envelope* e : order_) {
    const std::uint64_t stamp = e->payload.stamp();
    if (seq[0] != e->from || seq[1] != static_cast<std::uint32_t>(stamp) ||
        seq[2] != static_cast<std::uint32_t>(stamp >> 32)) {
      return false;
    }
    seq += kSeqWords;
  }
  // Equal stamps: the same reps holding the same bytes, so every offset
  // below lands in this receiver's own handle to the message it names.
  const std::uint32_t* b = seq;
  for (PartyId l = 0; l < n_; ++l, b += kBestWords) {
    if (b[0] == kNoSurvivor) {
      tallies_[l] = Tally{};
      continue;
    }
    counters_[static_cast<std::size_t>(l) * k_] =
        Counter{ByteView(order_[b[0]]->payload.data() + b[1], b[2]), b[3],
                b[0]};
    tallies_[l] = Tally{1, true};
  }
  return true;
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
      std::fill(seen_.begin(), seen_.end(), false);
      for (const sim::Envelope& e : inbox) {
        if (e.from >= n_ || seen_[e.from]) continue;
        const auto value = decode_leader_view(e.payload);
        if (value.has_value()) {
          seen_[e.from] = true;
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
      tally_round(kTagEcho, inbox, 1);
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
      tally_round(kTagSupport, inbox, n_ / (t_ + 1) + 1);
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

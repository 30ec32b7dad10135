// The generic asynchronous iteration skeleton shared by the async AA
// baselines: reliable-broadcast distribution plus the witness technique of
// Abraham–Amit–Dolev (the mechanism behind both the async real-valued AA of
// [1] and the async tree AA of [33], the paper's §1.2 state of the art).
//
// Per iteration k:
//   1. RBC the current value under tag k;
//   2. after n - t deliveries for k, broadcast REPORT(k, first n-t senders);
//   3. wait until n - t parties' reports are contained in the delivered
//      sender set — then any two honest parties share an honest witness and
//      hence >= n - t common (sender, value) pairs;
//   4. move to Policy::update(delivered values, t) and start iteration k+1,
//      or output after Policy-many iterations.
//
// The Policy supplies the value type, codec, update rule and iteration
// count:
//
//   struct Policy {
//     using Value = ...;
//     std::size_t iterations() const;
//     Bytes encode(const Value&) const;
//     std::optional<Value> decode(const Bytes&) const;   // reject garbage
//     Value update(std::vector<Value> multiset, std::size_t t) const;
//   };
//
// update() is called with at least 2t + 1 values of which at most t are
// Byzantine; it must return a value in the convex hull of every
// (m - t)-subset for Validity to carry.
#pragma once

#include <algorithm>
#include <map>
#include <optional>
#include <vector>

#include "async/engine.h"
#include "async/rbc.h"
#include "common/check.h"
#include "common/types.h"

namespace treeaa::async {

/// Leading byte of REPORT messages (RBC owns 0x01..0x03).
inline constexpr std::uint8_t kTagReport = 0x20;

namespace detail {

[[nodiscard]] inline Bytes encode_report(std::size_t iter,
                                         const std::vector<PartyId>& senders) {
  ByteWriter w;
  w.u8(kTagReport);
  w.varint(iter);
  w.vec(senders, [](ByteWriter& wr, PartyId p) { wr.varint(p); });
  return std::move(w).take();
}

struct Report {
  std::size_t iter;
  std::vector<PartyId> senders;
};

[[nodiscard]] inline std::optional<Report> decode_report(
    const Bytes& msg, std::size_t n, std::size_t max_iter) {
  try {
    ByteReader r(msg);
    if (r.u8() != kTagReport) return std::nullopt;
    Report rep;
    rep.iter = static_cast<std::size_t>(r.varint());
    if (rep.iter >= max_iter) return std::nullopt;
    rep.senders = r.vec<PartyId>(
        [n](ByteReader& rd) -> PartyId {
          const std::uint64_t p = rd.varint();
          if (p >= n) throw DecodeError("party id out of range");
          return static_cast<PartyId>(p);
        },
        /*max_len=*/n);
    r.expect_done();
    std::vector<PartyId> sorted = rep.senders;
    std::sort(sorted.begin(), sorted.end());
    if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
      return std::nullopt;  // duplicate senders
    }
    return rep;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace detail

template <typename Policy>
class WitnessAAProcess : public AsyncProcess {
 public:
  using Value = typename Policy::Value;

  WitnessAAProcess(Policy policy, std::size_t n, std::size_t t, PartyId self,
                   Value input)
      : policy_(std::move(policy)),
        n_(n),
        t_(t),
        iterations_(policy_.iterations()),
        self_(self),
        value_(std::move(input)),
        rbc_(self, n, t) {
    TREEAA_REQUIRE(fault_bound_holds(n, t));
    states_.resize(iterations_);
    if (iterations_ == 0) {
      output_ = value_;
    } else {
      rbc_.set_max_tag(iterations_ - 1);
    }
  }

  void on_start(Mailbox& out) override {
    if (output_.has_value()) return;
    rbc_.broadcast(/*tag=*/0, policy_.encode(value_), out);
  }

  void on_message(PartyId from, const Bytes& payload, Mailbox& out) override {
    if (iterations_ == 0) return;
    if (is_rbc_message(payload)) {
      for (const auto& delivery : rbc_.on_message(from, payload, out)) {
        auto value = policy_.decode(delivery.payload);
        if (!value.has_value()) continue;  // Byzantine junk
        state(static_cast<std::size_t>(delivery.tag))
            .values.emplace(delivery.broadcaster, std::move(*value));
      }
    } else if (auto rep = detail::decode_report(payload, n_, iterations_);
               rep.has_value()) {
      state(rep->iter).reports.emplace(from, std::move(rep->senders));
    } else {
      return;  // garbage
    }
    maybe_progress(out);
  }

  [[nodiscard]] bool done() const override { return output_.has_value(); }
  [[nodiscard]] const std::optional<Value>& output() const { return output_; }
  [[nodiscard]] const Value& value() const { return value_; }
  [[nodiscard]] std::size_t iteration() const { return iter_; }
  [[nodiscard]] std::size_t iterations() const { return iterations_; }

 private:
  struct IterationState {
    std::map<PartyId, Value> values;
    std::map<PartyId, std::vector<PartyId>> reports;
    bool reported = false;
  };

  IterationState& state(std::size_t k) { return states_[k]; }

  void maybe_progress(Mailbox& out) {
    // One delivery can unblock several steps — and under reordering even
    // several iterations — so loop until stuck.
    while (!output_.has_value()) {
      IterationState& st = state(iter_);

      if (!st.reported) {
        if (st.values.size() < n_ - t_) return;
        std::vector<PartyId> senders;
        for (const auto& [p, v] : st.values) senders.push_back(p);
        senders.resize(n_ - t_);  // the first n - t, deterministically
        st.reported = true;
        out.broadcast(detail::encode_report(iter_, senders));
      }

      std::size_t witnesses = 0;
      for (const auto& [q, senders] : st.reports) {
        const bool contained =
            std::all_of(senders.begin(), senders.end(), [&](PartyId p) {
              return st.values.contains(p);
            });
        if (contained) ++witnesses;
      }
      if (witnesses < n_ - t_) return;

      std::vector<Value> multiset;
      multiset.reserve(st.values.size());
      for (const auto& [p, v] : st.values) multiset.push_back(v);
      TREEAA_CHECK(multiset.size() >= 2 * t_ + 1);
      value_ = policy_.update(std::move(multiset), t_);

      ++iter_;
      if (iter_ == iterations_) {
        output_ = value_;
        return;
      }
      rbc_.broadcast(iter_, policy_.encode(value_), out);
    }
  }

  Policy policy_;
  std::size_t n_;
  std::size_t t_;
  std::size_t iterations_;
  PartyId self_;
  Value value_;
  std::size_t iter_ = 0;
  RbcHub rbc_;
  std::vector<IterationState> states_;
  std::optional<Value> output_;
};

}  // namespace treeaa::async

#include "sim/engine.h"

#include <algorithm>

namespace treeaa::sim {

// --- RoundView -------------------------------------------------------------

std::size_t RoundView::n() const { return engine_.n(); }
std::size_t RoundView::t() const { return engine_.t(); }

const std::vector<PartyId>& RoundView::corrupt() const {
  return engine_.corrupt_list_;
}

bool RoundView::is_corrupt(PartyId p) const { return engine_.is_corrupt(p); }

std::size_t RoundView::corruption_budget_left() const {
  return engine_.t() - engine_.corrupt_list_.size();
}

std::span<const Envelope> RoundView::queued() const { return engine_.queued_; }

void RoundView::send(PartyId from, PartyId to, perf::Payload payload) {
  TREEAA_REQUIRE_MSG(engine_.is_corrupt(from),
                     "adversary can only send from corrupt parties (party "
                         << from << " is honest)");
  engine_.inject(from, to, std::move(payload));
}

void RoundView::broadcast(PartyId from, const Bytes& payload) {
  const perf::Payload shared{Bytes(payload)};
  for (PartyId to = 0; to < engine_.n(); ++to) send(from, to, shared);
}

void RoundView::run_on_lanes(std::size_t count,
                             const perf::WorkerPool::Slice& slice) {
  engine_.pool_.run(count, slice);
}

std::vector<Envelope> RoundView::corrupt(PartyId p) {
  return engine_.corrupt_party(p);
}

// --- Engine ----------------------------------------------------------------

namespace {

// Parties per granted lane: the crossover measured in docs/PERF.md, where
// two lanes first beat one on both TreeAA and RealAA.
constexpr std::size_t kPartiesPerLane = 8;

}  // namespace

std::size_t Engine::lanes_for(std::size_t n, std::size_t threads) {
  return std::min(perf::WorkerPool::resolve_lanes(threads),
                  std::max<std::size_t>(1, n / kPartiesPerLane));
}

Engine::Engine(std::size_t n, std::size_t t, EngineOptions options)
    : t_(t), threads_(lanes_for(n, options.threads)) {
  TREEAA_REQUIRE_MSG(n >= 1, "need at least one party");
  TREEAA_REQUIRE_MSG(t < n, "t must be < n");
  processes_.resize(n);
  corrupt_.assign(n, false);
  adversary_ = std::make_unique<NullAdversary>();
  if (threads_ > 1) {
    pool_ = perf::WorkerPool::lease(threads_);
    staging_.resize(threads_);
  }
  arenas_.resize(threads_);
}

void Engine::set_process(PartyId p, std::unique_ptr<Process> process) {
  TREEAA_REQUIRE(p < n());
  TREEAA_REQUIRE_MSG(!started_, "cannot swap processes after run()");
  TREEAA_REQUIRE(process != nullptr);
  processes_[p] = std::move(process);
}

void Engine::set_adversary(std::unique_ptr<Adversary> adversary) {
  TREEAA_REQUIRE_MSG(!started_, "cannot swap adversary after run()");
  TREEAA_REQUIRE(adversary != nullptr);
  adversary_ = std::move(adversary);
}

bool Engine::is_corrupt(PartyId p) const {
  TREEAA_REQUIRE(p < n());
  return corrupt_[p];
}

std::vector<PartyId> Engine::honest() const {
  std::vector<PartyId> out;
  for (PartyId p = 0; p < n(); ++p) {
    if (!corrupt_[p]) out.push_back(p);
  }
  return out;
}

Process& Engine::process(PartyId p) {
  TREEAA_REQUIRE(p < n());
  TREEAA_REQUIRE_MSG(processes_[p] != nullptr, "no process for party " << p);
  return *processes_[p];
}

std::vector<Envelope> Engine::corrupt_party(PartyId p) {
  TREEAA_REQUIRE(p < n());
  if (corrupt_[p]) return {};
  TREEAA_REQUIRE_MSG(corrupt_list_.size() < t_,
                     "corruption budget t = " << t_ << " exhausted");
  corrupt_[p] = true;
  corrupt_list_.push_back(p);
  if (tracer_ != nullptr) tracer_->on_corrupt(p, started_ ? round_ + 1 : 0);
  // Retract whatever the party queued this round: the adversary takes over
  // its network interface from this instant. The retracted messages are
  // handed back so the adversary can selectively re-deliver them.
  std::vector<Envelope> retracted;
  auto keep = queued_.begin();
  for (auto it = queued_.begin(); it != queued_.end(); ++it) {
    if (it->from == p) {
      retracted.push_back(std::move(*it));
    } else {
      if (keep != it) *keep = std::move(*it);
      ++keep;
    }
  }
  queued_.erase(keep, queued_.end());
  return retracted;
}

void Engine::inject(PartyId from, PartyId to, perf::Payload payload) {
  TREEAA_REQUIRE(to < n());
  // Guard against memory bombs from fuzzing adversaries.
  TREEAA_REQUIRE_MSG(payload.size() <= (1u << 24),
                     "message exceeds 16 MiB cap");
  auto& rt = stats_.per_round.back();
  rt.adversary_messages += 1;
  rt.adversary_bytes += payload.size();
  queued_.push_back(Envelope{from, to, round_ + 1, std::move(payload)});
  if (tracer_ != nullptr) tracer_->on_queued(queued_.back(), true);
}

void Engine::run(Round rounds) {
  for (PartyId p = 0; p < n(); ++p) {
    TREEAA_REQUIRE_MSG(processes_[p] != nullptr,
                       "party " << p << " has no process");
  }
  if (!started_) {
    stats_.per_round.emplace_back();  // scratch entry for init-time injects
    RoundView view(*this, 0);
    adversary_->init(view);
    TREEAA_CHECK_MSG(queued_.empty(),
                     "adversary must not send during init (round 0)");
    stats_.per_round.clear();
    started_ = true;
  }

  for (Round i = 0; i < rounds; ++i) {
    const Round r = round_ + 1;
    stats_.per_round.emplace_back();
    queued_.clear();
    if (tracer_ != nullptr) tracer_->on_round_begin(r);

    // 1. Honest send phase.
    if (tracer_ != nullptr) tracer_->on_phase_begin(r, Phase::kSend);
    if (threads_ > 1) {
      send_phase_parallel(r);
    } else {
      send_phase(r);
    }
    if (tracer_ != nullptr) tracer_->on_phase_end(r, Phase::kSend);

    // 2. Rushing adversary.
    {
      if (tracer_ != nullptr) tracer_->on_phase_begin(r, Phase::kAdversary);
      RoundView view(*this, r);
      adversary_->act(view);
      if (tracer_ != nullptr) tracer_->on_phase_end(r, Phase::kAdversary);
    }

    // 3. Delivery, sorted by sender (stable: same-sender order preserved).
    // An attached link layer filters the round's traffic first (drops,
    // duplicates, corruption, per-link reordering).
    if (tracer_ != nullptr) tracer_->on_phase_begin(r, Phase::kSort);
    if (link_layer_ != nullptr) {
      queued_ = link_layer_->deliver(r, std::move(queued_));
    }
    if (tracer_ != nullptr) {
      tracer_->on_deliver(r);
      for (const Envelope& e : queued_) tracer_->on_delivered(e);
    }
    // Two-pass stable counting sort (by sender, then by recipient). The
    // result — recipient-major slices, each ordered by sender with
    // same-sender send order preserved — is byte-for-byte the order the
    // previous stable_sort-by-sender + bucket-by-recipient produced, but
    // reuses one flat array instead of growing n inbox vectors per round.
    const std::size_t m = queued_.size();
    sort_scratch_.resize(m);
    delivery_.resize(m);
    counts_.assign(n() + 1, 0);
    for (const Envelope& e : queued_) {
      TREEAA_CHECK_MSG(e.from < n(), "sender " << e.from << " out of range");
      ++counts_[e.from + 1];
    }
    for (std::size_t k = 1; k <= n(); ++k) counts_[k] += counts_[k - 1];
    for (Envelope& e : queued_) {
      sort_scratch_[counts_[e.from]++] = std::move(e);
    }
    inbox_offsets_.assign(n() + 1, 0);
    for (const Envelope& e : sort_scratch_) {
      TREEAA_CHECK_MSG(e.to < n(), "recipient " << e.to << " out of range");
      ++inbox_offsets_[e.to + 1];
    }
    for (std::size_t k = 1; k <= n(); ++k) {
      inbox_offsets_[k] += inbox_offsets_[k - 1];
    }
    counts_.assign(inbox_offsets_.begin(), inbox_offsets_.end());
    for (Envelope& e : sort_scratch_) {
      delivery_[counts_[e.to]++] = std::move(e);
    }
    queued_.clear();
    round_ = r;
    if (tracer_ != nullptr) {
      tracer_->on_phase_end(r, Phase::kSort);
      tracer_->on_phase_begin(r, Phase::kHandle);
    }
    delivery_phase(r);
    if (tracer_ != nullptr) tracer_->on_phase_end(r, Phase::kHandle);
    // Inboxes are fully consumed (processes copy what they keep); release
    // each payload's last reference back into an arena so next round's
    // broadcasts reuse the control blocks and byte capacity. Round-robin
    // keeps every lane's arena warm in the parallel configuration.
    if (arenas_.size() == 1) {
      for (Envelope& e : delivery_) e.payload.release(&arenas_[0]);
    } else {
      for (Envelope& e : delivery_) {
        e.payload.release(&arenas_[recycle_cursor_]);
        if (++recycle_cursor_ == arenas_.size()) recycle_cursor_ = 0;
      }
    }
  }
}

// The serial send phase: parties queue directly into queued_, and stats and
// trace hooks fire as each party's messages land.
void Engine::send_phase(Round r) {
  for (PartyId p = 0; p < n(); ++p) {
    if (corrupt_[p]) continue;
    const std::size_t before = queued_.size();
    Mailer mailer(p, n(), queued_, r, &arenas_[0]);
    if (tracer_ != nullptr) tracer_->on_party_begin(p, r, Phase::kSend, 0);
    processes_[p]->on_round_begin(r, mailer);
    if (tracer_ != nullptr) tracer_->on_party_end(p, r, Phase::kSend, 0);
    auto& rt = stats_.per_round.back();
    for (std::size_t k = before; k < queued_.size(); ++k) {
      rt.honest_messages += 1;
      rt.honest_bytes += queued_[k].payload.size();
      if (tracer_ != nullptr) tracer_->on_queued(queued_[k], false);
    }
  }
}

// The parallel send phase. Lane l owns the statically-chunked party range
// [l*chunk, (l+1)*chunk) and stages its envelopes into staging_[lane]. Once
// pool.run() returns, every lane is done, and the dispatching thread appends
// the staging vectors to queued_ in lane order, so queued_ receives exactly
// the serial party-ascending order and everything downstream (the
// adversary's rushing view, the stable delivery sort, traces, stats) is
// byte-identical to send_phase(). Stats and the on_queued trace hook fire
// during that merge, on one thread, in that same serial order.
void Engine::send_phase_parallel(Round r) {
  for (std::vector<Envelope>& lane_out : staging_) lane_out.clear();
  pool_.run(
      n(), [&](std::size_t lane, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          const PartyId p = static_cast<PartyId>(i);
          if (corrupt_[p]) continue;
          Mailer mailer(p, n(), staging_[lane], r, &arenas_[lane]);
          if (tracer_ != nullptr) {
            tracer_->on_party_begin(p, r, Phase::kSend, lane);
          }
          processes_[p]->on_round_begin(r, mailer);
          if (tracer_ != nullptr) {
            tracer_->on_party_end(p, r, Phase::kSend, lane);
          }
        }
      });
  auto& rt = stats_.per_round.back();
  for (std::vector<Envelope>& lane_out : staging_) {
    for (Envelope& e : lane_out) {
      rt.honest_messages += 1;
      rt.honest_bytes += e.payload.size();
      queued_.push_back(std::move(e));
      if (tracer_ != nullptr) tracer_->on_queued(queued_.back(), false);
    }
  }
}

// Hands every honest party its inbox slice. Parties only read their own
// const slice and mutate their own process state, so the parallel fan-out
// is race-free; per-party delivery order is fixed by the sort, so the
// fan-out cannot reorder anything observable.
void Engine::delivery_phase(Round r) {
  pool_.run(n(), [&](std::size_t lane, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const PartyId p = static_cast<PartyId>(i);
      if (corrupt_[p]) continue;
      if (tracer_ != nullptr) {
        tracer_->on_party_begin(p, r, Phase::kHandle, lane);
      }
      processes_[p]->on_round_end(
          r, std::span<const Envelope>(delivery_.data() + inbox_offsets_[p],
                                       inbox_offsets_[p + 1] -
                                           inbox_offsets_[p]));
      if (tracer_ != nullptr) tracer_->on_party_end(p, r, Phase::kHandle, lane);
    }
  });
}

}  // namespace treeaa::sim

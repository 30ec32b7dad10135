#include "sim/strategies.h"

#include <algorithm>
#include <numeric>

#include "common/check.h"

namespace treeaa::sim {

SilentAdversary::SilentAdversary(std::vector<PartyId> victims)
    : victims_(std::move(victims)) {}

void SilentAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

CrashAdversary::CrashAdversary(std::vector<Crash> crashes)
    : crashes_(std::move(crashes)) {}

void CrashAdversary::act(RoundView& view) {
  for (const Crash& c : crashes_) {
    if (c.round != view.round()) continue;
    auto retracted = view.corrupt(c.party);
    const auto kept = static_cast<std::size_t>(
        c.delivered_fraction * static_cast<double>(retracted.size()));
    for (std::size_t i = 0; i < std::min(kept, retracted.size()); ++i) {
      view.send(c.party, retracted[i].to, std::move(retracted[i].payload));
    }
  }
}

FuzzAdversary::FuzzAdversary(std::vector<PartyId> victims, std::uint64_t seed,
                             std::size_t messages_per_round,
                             std::size_t max_payload)
    : victims_(std::move(victims)),
      rng_(seed),
      messages_per_round_(messages_per_round),
      max_payload_(max_payload) {}

void FuzzAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

void FuzzAdversary::act(RoundView& view) {
  if (victims_.empty()) return;
  for (std::size_t i = 0; i < messages_per_round_; ++i) {
    const PartyId from = rng_.pick(victims_);
    const PartyId to = static_cast<PartyId>(rng_.index(view.n()));
    Bytes payload(rng_.index(max_payload_ + 1));
    for (auto& b : payload) b = static_cast<std::uint8_t>(rng_.next());
    view.send(from, to, std::move(payload));
  }
}

ReplayAdversary::ReplayAdversary(std::vector<PartyId> victims,
                                 std::uint64_t seed,
                                 std::size_t messages_per_round)
    : victims_(std::move(victims)),
      rng_(seed),
      messages_per_round_(messages_per_round) {}

void ReplayAdversary::init(RoundView& view) {
  for (const PartyId p : victims_) view.corrupt(p);
}

void ReplayAdversary::act(RoundView& view) {
  if (victims_.empty()) return;
  // Replay before recording, so everything sent is at least a round stale.
  if (!recorded_.empty()) {
    for (std::size_t i = 0; i < messages_per_round_; ++i) {
      const PartyId from = rng_.pick(victims_);
      const PartyId to = static_cast<PartyId>(rng_.index(view.n()));
      view.send(from, to, rng_.pick(recorded_));
    }
  }
  // Record a bounded sample of this round's honest payloads.
  for (const Envelope& e : view.queued()) {
    if (view.is_corrupt(e.from)) continue;
    if (recorded_.size() < 512) {
      recorded_.push_back(e.payload);
    } else {
      recorded_[rng_.index(recorded_.size())] = e.payload;
    }
  }
}

PuppetAdversary::PuppetAdversary(std::vector<Puppet> puppets)
    : puppets_(std::move(puppets)),
      outboxes_(puppets_.size()),
      inboxes_(puppets_.size()) {
  std::vector<PartyId> parties;
  for (const Puppet& p : puppets_) parties.push_back(p.party);
  std::sort(parties.begin(), parties.end());
  const auto dup = std::adjacent_find(parties.begin(), parties.end());
  TREEAA_REQUIRE_MSG(dup == parties.end(),
                     "two puppets for party " << *dup);
}

void PuppetAdversary::init(RoundView& view) {
  slot_.assign(view.n(), puppets_.size());
  for (std::size_t i = 0; i < puppets_.size(); ++i) {
    view.corrupt(puppets_[i].party);
    slot_[puppets_[i].party] = i;
  }
}

std::function<bool(const Envelope&)> PuppetAdversary::random_drops(
    double drop_probability, std::uint64_t seed) {
  TREEAA_REQUIRE(drop_probability >= 0.0 && drop_probability <= 1.0);
  // Shared state so the closure stays copyable.
  auto rng = std::make_shared<Rng>(seed);
  return [rng, drop_probability](const Envelope&) {
    return !rng->chance(drop_probability);
  };
}

void PuppetAdversary::act(RoundView& view) {
  const Round r = ++local_round_;
  const Round wire_round = view.round();
  const std::size_t n = view.n();
  // Send phase: every puppet queues into its own outbox on a lane, like an
  // honest party. The outboxes merge here in puppet order, minus whatever
  // the omission filter swallows; filters may share an RNG, so they only
  // run on this thread.
  view.run_on_lanes(
      puppets_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          Mailer mailer(puppets_[i].party, n, outboxes_[i], wire_round);
          puppets_[i].process->on_round_begin(r, mailer);
        }
      });
  for (std::size_t i = 0; i < puppets_.size(); ++i) {
    Puppet& p = puppets_[i];
    for (Envelope& e : outboxes_[i]) {
      if (p.send_filter && !p.send_filter(e)) continue;
      view.send(p.party, e.to, std::move(e.payload));
    }
    outboxes_[i].clear();
  }
  // Delivery phase: after the sends above, this round's traffic is final
  // (the adversary acts last), so one pass over it fills every puppet's
  // inbox. The honest processes receive the identical set after act()
  // returns.
  for (const Envelope& e : view.queued()) {
    const std::size_t i = slot_[e.to];
    if (i < puppets_.size()) inboxes_[i].push_back(e);
  }
  view.run_on_lanes(
      puppets_.size(), [&](std::size_t, std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          std::vector<Envelope>& inbox = inboxes_[i];
          std::stable_sort(inbox.begin(), inbox.end(),
                           [](const Envelope& a, const Envelope& b) {
                             return a.from < b.from;
                           });
          puppets_[i].process->on_round_end(r, inbox);
          // Drop the shared payload references before the link layer and
          // the engine's arenas see this round's traffic.
          inbox.clear();
        }
      });
}

ComposedAdversary::ComposedAdversary(
    std::vector<std::unique_ptr<Adversary>> parts)
    : parts_(std::move(parts)) {
  for (const auto& p : parts_) TREEAA_REQUIRE(p != nullptr);
}

void ComposedAdversary::init(RoundView& view) {
  for (auto& p : parts_) p->init(view);
}

void ComposedAdversary::act(RoundView& view) {
  for (auto& p : parts_) p->act(view);
}

std::vector<PartyId> first_parties(std::size_t k) {
  std::vector<PartyId> out(k);
  std::iota(out.begin(), out.end(), 0u);
  return out;
}

std::vector<PartyId> random_parties(std::size_t n, std::size_t k, Rng& rng) {
  TREEAA_REQUIRE(k <= n);
  std::vector<PartyId> all(n);
  std::iota(all.begin(), all.end(), 0u);
  rng.shuffle(all);
  all.resize(k);
  std::sort(all.begin(), all.end());
  return all;
}

}  // namespace treeaa::sim

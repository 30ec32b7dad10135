// Differential property test of BatchGradecast's step tallies against a
// test-local copy of the plain sort-and-run-length tally, on crafted
// inboxes: random slot multisets with exact count ties and values at the
// n - t and t + 1 thresholds, ⊥-heavy rows and empty values, duplicate,
// malformed and wrong-tag messages from one sender, and any number of
// hostile senders, at n ∈ {4, 7, 16, 64}. Every batch runs twice: once on
// unshared payloads (each receiver decodes locally) and once with every
// payload shared between two receivers' inboxes (the first receiver's
// decode is memoized on the payload and the second reads the memo).
// GradecastGolden pins the results of a fixed set of those batches.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/rng.h"
#include "gradecast/gradecast.h"
#include "gradecast/wire.h"
#include "owned_slots.h"
#include "perf/parallel.h"
#include "sim/process.h"

namespace treeaa::gradecast {
namespace {

using sim::Envelope;

// --- Reference tally ---------------------------------------------------------

using Row = std::vector<Slot>;

/// Per sender, the first message that decodes with `tag` into n slots.
std::vector<std::optional<Row>> reference_rows(
    std::uint8_t tag, std::span<const Envelope> inbox, std::size_t n) {
  std::vector<std::optional<Row>> rows(n);
  for (const Envelope& e : inbox) {
    if (e.from >= n || rows[e.from].has_value()) continue;
    rows[e.from] = decode_owned(tag, e.payload, n);
  }
  return rows;
}

bool view_less(ByteView a, ByteView b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

bool view_eq(ByteView a, ByteView b) {
  return a.size() == b.size() && std::equal(a.begin(), a.end(), b.begin());
}

/// Leader l's present slots over the decoded rows, sorted lexicographically
/// (views into `rows`).
std::vector<ByteView> sorted_slots(
    const std::vector<std::optional<Row>>& rows, PartyId l) {
  std::vector<ByteView> runs;
  for (const auto& row : rows) {
    if (row.has_value() && (*row)[l].has_value()) runs.push_back(*(*row)[l]);
  }
  std::sort(runs.begin(), runs.end(), view_less);
  return runs;
}

struct Expected {
  Row echo;
  Row supports;
  std::vector<GradedValue> results;
};

Expected reference_batch(std::size_t n, std::size_t t,
                         const std::vector<bool>& deny,
                         const std::vector<Envelope> (&inbox)[kRounds]) {
  Expected x;
  x.echo.assign(n, std::nullopt);
  std::vector<bool> heard(n, false);
  for (const Envelope& e : inbox[0]) {
    if (e.from >= n || heard[e.from]) continue;
    auto value = decode_leader(e.payload);
    if (!value.has_value()) continue;
    heard[e.from] = true;
    if (!deny[e.from]) x.echo[e.from] = std::move(*value);
  }

  const auto echoes = reference_rows(kTagEcho, inbox[1], n);
  x.supports.assign(n, std::nullopt);
  for (PartyId l = 0; l < n; ++l) {
    if (deny[l]) continue;
    const auto runs = sorted_slots(echoes, l);
    for (std::size_t i = 0; i < runs.size();) {
      std::size_t j = i + 1;
      while (j < runs.size() && view_eq(runs[j], runs[i])) ++j;
      if (j - i >= n - t) {
        x.supports[l] = Bytes(runs[i].begin(), runs[i].end());
        break;
      }
      i = j;
    }
  }

  const auto supports = reference_rows(kTagSupport, inbox[2], n);
  x.results.assign(n, GradedValue{});
  for (PartyId l = 0; l < n; ++l) {
    const auto runs = sorted_slots(supports, l);
    const ByteView* best = nullptr;
    std::size_t best_count = 0;
    for (std::size_t i = 0; i < runs.size();) {
      std::size_t j = i + 1;
      while (j < runs.size() && view_eq(runs[j], runs[i])) ++j;
      if (j - i > best_count) {
        best = &runs[i];
        best_count = j - i;
      }
      i = j;
    }
    if (best != nullptr && best_count >= t + 1) {
      x.results[l].value = Bytes(best->begin(), best->end());
      x.results[l].grade = best_count >= n - t ? 2 : 1;
    }
  }
  return x;
}

// --- Crafted batches ---------------------------------------------------------

struct Batch {
  std::size_t n = 0;
  std::size_t t = 0;
  PartyId self = 0;
  Bytes my_value;
  std::vector<bool> deny;
  std::vector<Envelope> inbox[kRounds];
};

/// A small alphabet so counts collide: the empty value, and values that are
/// prefixes of one another (the lexicographic tie-break's edge).
Bytes pick_value(Rng& rng) {
  static const std::vector<Bytes> kAlphabet{
      {}, {0x00}, {0x00, 0x00}, {0x01}, {0x01, 0x02}, {0xFF}};
  return rng.pick(kAlphabet);
}

/// Everything a hostile sender may put in front of (or instead of) a valid
/// message: truncations, the wrong tag, the wrong arity, random bytes.
Bytes malformed(Rng& rng, std::uint8_t tag, const Bytes& valid,
                std::size_t n) {
  switch (rng.index(4)) {
    case 0:
      return Bytes(valid.begin(),
                   valid.begin() + static_cast<long>(rng.index(valid.size())));
    case 1: {
      Bytes wrong = valid;
      wrong[0] = static_cast<std::uint8_t>(tag == kTagEcho ? kTagSupport
                                                           : kTagEcho);
      return wrong;
    }
    case 2: {
      std::vector<Slot> slots(rng.chance(0.5) ? n - 1 : n + 1);
      for (Slot& s : slots) s = pick_value(rng);
      return encode_slots(tag, slots);
    }
    default: {
      Bytes junk(rng.index(12), 0);
      for (auto& b : junk) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      return junk;
    }
  }
}

/// Column of leader l's slots over the senders, drawn in one of several
/// shapes: uniform, one dominant value, ⊥-heavy, an exact two-way tie, or a
/// value placed exactly at (or one below) the n - t / t + 1 thresholds.
std::vector<Slot> craft_column(Rng& rng, std::size_t n, std::size_t t) {
  std::vector<Slot> col(n);
  const auto fill_rest = [&](std::size_t from, double bottom) {
    for (std::size_t q = from; q < n; ++q) {
      if (!rng.chance(bottom)) col[q] = pick_value(rng);
    }
  };
  switch (rng.index(5)) {
    case 0:
      fill_rest(0, 0.2);
      break;
    case 1: {
      const Bytes dominant = pick_value(rng);
      const double p = 0.5 + 0.5 * rng.unit();
      for (Slot& s : col) s = rng.chance(p) ? dominant : pick_value(rng);
      break;
    }
    case 2:
      fill_rest(0, 0.8);
      break;
    case 3: {
      const Bytes a = pick_value(rng);
      Bytes b = pick_value(rng);
      if (b == a) b.push_back(0x7F);
      const std::size_t k = 1 + rng.index(n / 2);
      for (std::size_t q = 0; q < k; ++q) col[q] = a;
      for (std::size_t q = k; q < 2 * k; ++q) col[q] = b;
      if (rng.chance(0.5)) fill_rest(2 * k, 0.7);
      break;
    }
    default: {
      const std::size_t edges[] = {n - t, n - t - 1, t + 1, t};
      const std::size_t k = edges[rng.index(4)];
      const Bytes a = pick_value(rng);
      for (std::size_t q = 0; q < k; ++q) col[q] = a;
      fill_rest(k, 0.5);
      break;
    }
  }
  rng.shuffle(col);
  return col;
}

/// One step's inbox: per sender, optional malformed attempts, then the
/// valid row (or nothing), then optional conflicting duplicates; plus
/// envelopes from out-of-range senders. The whole inbox is shuffled, so
/// senders interleave and a duplicate may precede the intended message.
std::vector<Envelope> craft_slot_inbox(Rng& rng, std::uint8_t tag,
                                       std::size_t n, std::size_t t,
                                       Round round) {
  std::vector<std::vector<Slot>> columns(n);
  for (auto& col : columns) col = craft_column(rng, n, t);
  std::vector<Envelope> inbox;
  const auto deliver = [&](PartyId from, Bytes payload) {
    inbox.push_back(Envelope{from, 0, round, perf::Payload(std::move(payload))});
  };
  for (PartyId q = 0; q < n; ++q) {
    std::vector<Slot> row(n);
    for (PartyId l = 0; l < n; ++l) row[l] = columns[l][q];
    const Bytes valid = encode_slots(tag, row);
    while (rng.chance(0.15)) deliver(q, malformed(rng, tag, valid, n));
    if (rng.chance(0.1)) continue;  // silent (or only garbage)
    deliver(q, valid);
    while (rng.chance(0.15)) {
      std::vector<Slot> other(n);
      for (Slot& s : other) {
        if (rng.chance(0.7)) s = pick_value(rng);
      }
      deliver(q, encode_slots(tag, other));
    }
  }
  if (rng.chance(0.2)) deliver(static_cast<PartyId>(n + rng.index(3)), Bytes{tag});
  rng.shuffle(inbox);
  return inbox;
}

std::vector<Envelope> craft_leader_inbox(Rng& rng, std::size_t n) {
  std::vector<Envelope> inbox;
  const auto deliver = [&](PartyId from, Bytes payload) {
    inbox.push_back(Envelope{from, 0, 1, perf::Payload(std::move(payload))});
  };
  for (PartyId q = 0; q < n; ++q) {
    const Bytes valid = encode_leader(pick_value(rng));
    while (rng.chance(0.15)) {
      Bytes bad = valid;
      if (rng.chance(0.5)) {
        bad[0] = kTagEcho;
      } else {
        bad.push_back(0);  // trailing byte
      }
      deliver(q, std::move(bad));
    }
    if (rng.chance(0.1)) continue;
    deliver(q, valid);
    if (rng.chance(0.15)) deliver(q, encode_leader(pick_value(rng)));
  }
  rng.shuffle(inbox);
  return inbox;
}

Batch craft_batch(std::size_t n, std::uint64_t seed) {
  Rng rng(seed * 0x9E3779B97F4A7C15ull + n);
  Batch b;
  b.n = n;
  const std::size_t t_max = (n - 1) / 3;
  b.t = rng.chance(0.75) ? t_max : rng.index(t_max + 1);
  b.self = static_cast<PartyId>(rng.index(n));
  b.my_value = pick_value(rng);
  b.deny.assign(n, false);
  if (rng.chance(0.5)) {
    for (std::size_t l = 0; l < n; ++l) b.deny[l] = rng.chance(0.2);
  }
  b.inbox[0] = craft_leader_inbox(rng, n);
  b.inbox[1] = craft_slot_inbox(rng, kTagEcho, n, b.t, 2);
  b.inbox[2] = craft_slot_inbox(rng, kTagSupport, n, b.t, 3);
  return b;
}

// --- Driving BatchGradecast ----------------------------------------------------

struct Observed {
  Bytes sent[kRounds];
  std::vector<GradedValue> results;
};

/// Runs party `self`'s batch over `b`'s inboxes.
Observed drive_as(const Batch& b, PartyId self) {
  BatchGradecast batch(self, b.n, b.t, b.my_value, b.deny);
  Observed o;
  for (std::size_t step = 0; step < kRounds; ++step) {
    std::vector<Envelope> sink;
    sim::Mailer out(b.self, b.n, sink, static_cast<Round>(step + 1));
    batch.on_step_begin(step, out);
    EXPECT_EQ(sink.size(), b.n) << "step " << step;
    if (!sink.empty()) {
      o.sent[step] = static_cast<const Bytes&>(sink.front().payload);
    }
    for (const Envelope& e : sink) {
      EXPECT_EQ(static_cast<const Bytes&>(e.payload), o.sent[step]);
    }
    batch.on_step_end(step, b.inbox[step]);
  }
  o.results = batch.results();
  return o;
}

Observed drive(const Batch& b) { return drive_as(b, b.self); }

void expect_same(const Observed& got, const Observed& want,
                 const std::string& where) {
  for (std::size_t step = 0; step < kRounds; ++step) {
    EXPECT_EQ(got.sent[step], want.sent[step]) << where << " step " << step;
  }
  ASSERT_EQ(got.results.size(), want.results.size()) << where;
  for (std::size_t l = 0; l < got.results.size(); ++l) {
    EXPECT_EQ(got.results[l].grade, want.results[l].grade)
        << where << " leader " << l;
    EXPECT_EQ(got.results[l].value, want.results[l].value)
        << where << " leader " << l;
  }
}

/// `b` with every payload copied into a fresh, unshared buffer.
Batch deep_copy(const Batch& b) {
  Batch copy = b;
  for (auto& inbox : copy.inbox) {
    for (Envelope& e : inbox) e.payload = perf::Payload(Bytes(e.payload));
  }
  return copy;
}

/// Checks one batch against the reference; returns what the batch did.
Observed expect_matches_reference(const Batch& b, const std::string& where) {
  Observed got = drive(b);
  const Expected want = reference_batch(b.n, b.t, b.deny, b.inbox);
  EXPECT_EQ(got.sent[0], encode_leader(b.my_value)) << where;
  EXPECT_EQ(got.sent[1], encode_slots(kTagEcho, want.echo)) << where;
  EXPECT_EQ(got.sent[2], encode_slots(kTagSupport, want.supports)) << where;
  EXPECT_EQ(got.results.size(), b.n) << where;
  for (PartyId l = 0; l < b.n && l < got.results.size(); ++l) {
    EXPECT_EQ(got.results[l].grade, want.results[l].grade)
        << where << " leader " << l;
    EXPECT_EQ(got.results[l].value, want.results[l].value)
        << where << " leader " << l;
  }
  return got;
}

/// Shares every payload of `b` with a twin receiver's inboxes, and replays
/// some echo-tagged payloads into the support step, after the twin's echo
/// step has memoized them under kTagEcho: the wrong tag rejects them there,
/// as a malformed attempt that shadows nothing, so the reference is
/// unchanged. Returns the twin's observation; `b` is left for a second
/// receiver.
Observed drive_shared_twin(Batch& b, Rng& rng) {
  const std::size_t echoes = b.inbox[1].size();
  for (std::size_t i = 0; i < echoes; ++i) {
    const perf::Payload& echo = b.inbox[1][i].payload;
    if (echo.empty() || echo[0] != kTagEcho || !rng.chance(0.2)) continue;
    auto& support = b.inbox[2];
    const auto at = static_cast<long>(rng.index(support.size() + 1));
    support.insert(support.begin() + at, b.inbox[1][i]);
  }
  const Batch twin = b;  // shares every payload
  for (const auto& inbox : b.inbox) {
    for (const Envelope& e : inbox) EXPECT_TRUE(e.payload.shared());
  }
  return drive(twin);
}

TEST(GradecastTally, MatchesSortAndRunLengthReference) {
  for (const std::size_t n : {4u, 7u, 16u, 64u}) {
    const std::uint64_t batches = n == 64 ? 60 : 400;
    // The crafted inboxes must reach every outcome, at every n.
    std::size_t grades[3] = {0, 0, 0};
    for (std::uint64_t seed = 1; seed <= batches; ++seed) {
      const std::string where =
          "n=" + std::to_string(n) + " seed=" + std::to_string(seed);
      Batch b = craft_batch(n, seed);
      for (const auto& inbox : b.inbox) {
        for (const Envelope& e : inbox) ASSERT_FALSE(e.payload.shared());
      }
      const Observed o = expect_matches_reference(b, where + " unshared");
      Rng rng(seed);
      const Observed twin = drive_shared_twin(b, rng);
      expect_same(twin, o, where + " shared, first receiver");
      expect_same(expect_matches_reference(b, where + " shared"), o,
                  where + " shared, second receiver");
      if (HasFailure()) return;
      for (const GradedValue& r : o.results) {
        ++grades[static_cast<std::size_t>(r.grade)];
      }
    }
    for (int g = 0; g < 3; ++g) {
      EXPECT_GT(grades[g], batches / 4) << "n=" << n << " grade " << g;
    }
  }
}

// 64 receivers tally one round of shared payloads on four real threads,
// the way the engine's delivery lanes do: each receiver holds its own
// handles to the same reps, so the first reader of each rep indexes it
// while the others race to read the memo (or decode locally while it is
// still being filled). Each must match its own serial run on unshared
// copies. Run under TSan by CI's race-audit job.
TEST(GradecastTally, SharedInboxAcrossLanes) {
  constexpr std::size_t n = 64;
  perf::WorkerPool pool(4, 4);
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const Batch b = craft_batch(n, 500 + seed);
    std::vector<Observed> serial(n);
    for (PartyId r = 0; r < n; ++r) serial[r] = drive_as(deep_copy(b), r);
    const std::vector<Batch> inboxes(n, b);  // every receiver shares the reps
    std::vector<Observed> lanes(n);
    pool.run(n, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t r = begin; r < end; ++r) {
        lanes[r] = drive_as(inboxes[r], static_cast<PartyId>(r));
      }
    });
    for (PartyId r = 0; r < n; ++r) {
      expect_same(lanes[r], serial[r],
                  "seed=" + std::to_string(seed) + " receiver " +
                      std::to_string(r));
    }
    if (HasFailure()) return;
  }
}

// Every sender hostile and every row a two-way tie between values at the
// grade-1 threshold: the lexicographically smallest value must win.
TEST(GradecastTally, ExactTiesBreakToSmallestValue) {
  const std::size_t n = 7, t = 2;
  const Bytes a{0x01}, b{0x01, 0x00};  // a is a prefix of b, so a < b
  Batch batch;
  batch.n = n;
  batch.t = t;
  batch.deny.assign(n, false);
  for (PartyId q = 0; q < n; ++q) {
    std::vector<Slot> row(n);
    for (PartyId l = 0; l < n; ++l) {
      // Senders 0-2 back b, 3-5 back a, 6 sends ⊥: three apiece.
      if (q < 3) row[l] = b;
      else if (q < 6) row[l] = a;
    }
    batch.inbox[2].push_back(Envelope{q, 0, 3, encode_slots(kTagSupport, row)});
  }
  expect_matches_reference(batch, "tie");
  const Observed o = drive(batch);
  for (PartyId l = 0; l < n; ++l) {
    EXPECT_EQ(o.results[l].grade, 1);
    EXPECT_EQ(o.results[l].value, a);
  }
}

// --- Golden ------------------------------------------------------------------

std::uint64_t fnv1a64(std::uint64_t h, std::span<const std::uint8_t> bytes) {
  for (const std::uint8_t c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

/// Pins the results() of 200 seeded hostile batches (FNV-1a 64 over each
/// leader's grade, presence byte, value length and value bytes). Recorded
/// on the sort-and-run-length tally; a tally rewrite must keep it.
TEST(GradecastGolden, HostileBatchResultsHashPinned) {
  std::uint64_t h = 14695981039346656037ull;
  for (const std::size_t n : {4u, 7u, 16u, 64u}) {
    for (std::uint64_t seed = 1; seed <= 50; ++seed) {
      const Observed o = drive(craft_batch(n, 1000 + seed));
      for (const GradedValue& r : o.results) {
        const std::uint8_t head[] = {
            static_cast<std::uint8_t>(r.grade),
            static_cast<std::uint8_t>(r.value.has_value()),
            static_cast<std::uint8_t>(r.value ? r.value->size() : 0)};
        h = fnv1a64(h, head);
        if (r.value.has_value()) h = fnv1a64(h, *r.value);
      }
    }
  }
  EXPECT_EQ(h, 6121768117383118398ull);
}

}  // namespace
}  // namespace treeaa::gradecast

// Adversarial decoding: the gradecast codecs against truncated, oversized
// and random-garbage byte strings. Byzantine parties inject arbitrary
// bytes, so a decoder that throws, over-reads or crashes on any input is a
// protocol bug — malformed must always mean nullopt.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <optional>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "gradecast/wire.h"
#include "owned_slots.h"

namespace treeaa::gradecast {
namespace {

TEST(GradecastWireFuzz, LeaderRoundTripSurvivesTruncation) {
  const Bytes value{10, 20, 30, 40, 50};
  const Bytes msg = encode_leader(value);
  ASSERT_EQ(decode_leader(msg), value);
  // Every strict prefix is malformed, never a crash or a partial value.
  for (std::size_t len = 0; len < msg.size(); ++len) {
    const Bytes prefix(msg.begin(), msg.begin() + static_cast<long>(len));
    EXPECT_EQ(decode_leader(prefix), std::nullopt) << "prefix length " << len;
  }
}

TEST(GradecastWireFuzz, LeaderRejectsTrailingAndOversizedLength) {
  Bytes msg = encode_leader(Bytes{1, 2, 3});
  msg.push_back(0);  // trailing byte
  EXPECT_EQ(decode_leader(msg), std::nullopt);

  // A length prefix promising more bytes than the buffer holds.
  ByteWriter w;
  w.u8(kTagLeader);
  w.varint(1'000'000);
  w.u8(7);
  EXPECT_EQ(decode_leader(std::move(w).take()), std::nullopt);

  EXPECT_EQ(decode_leader(Bytes{}), std::nullopt);
  EXPECT_EQ(decode_leader(Bytes{kTagEcho, 0}), std::nullopt);  // wrong tag
}

TEST(GradecastWireFuzz, SlotsRoundTripSurvivesTruncation) {
  const std::size_t n = 4;
  const std::vector<Slot> slots{Bytes{1, 2}, std::nullopt, Bytes{},
                                Bytes{9, 9, 9}};
  const Bytes msg = encode_slots(kTagEcho, slots);
  ASSERT_EQ(decode_owned(kTagEcho, msg, n), slots);
  for (std::size_t len = 0; len < msg.size(); ++len) {
    const Bytes prefix(msg.begin(), msg.begin() + static_cast<long>(len));
    EXPECT_EQ(decode_owned(kTagEcho, prefix, n), std::nullopt)
        << "prefix length " << len;
  }
}

TEST(GradecastWireFuzz, SlotsRejectWrongArityAndTag) {
  const std::vector<Slot> slots{Bytes{1}, std::nullopt, Bytes{2}};
  const Bytes msg = encode_slots(kTagSupport, slots);
  EXPECT_EQ(decode_owned(kTagEcho, msg, 3), std::nullopt);     // wrong tag
  EXPECT_EQ(decode_owned(kTagSupport, msg, 4), std::nullopt);  // too few
  EXPECT_EQ(decode_owned(kTagSupport, msg, 2), std::nullopt);  // too many

  // A slot-count prefix far above n must be rejected before any attempt to
  // allocate or read that many slots.
  ByteWriter w;
  w.u8(kTagEcho);
  w.varint(1u << 30);
  EXPECT_EQ(decode_owned(kTagEcho, std::move(w).take(), 4), std::nullopt);
}

TEST(GradecastWireFuzz, RandomGarbageNeverDecodesLeaderDangerously) {
  Rng rng(0xC0DEC);
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes msg(rng.index(64), 0);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    // Must not throw; a successful decode must re-encode to the same bytes
    // (the codec admits exactly its own canonical encodings).
    const auto value = decode_leader(msg);
    if (value.has_value()) {
      EXPECT_EQ(encode_leader(*value), msg);
    }
  }
}

TEST(GradecastWireFuzz, RandomGarbageNeverDecodesSlotsDangerously) {
  Rng rng(0x51075);
  const std::size_t n = 5;
  for (int iter = 0; iter < 2000; ++iter) {
    Bytes msg(rng.index(96), 0);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    const auto slots = decode_owned(kTagEcho, msg, n);
    if (slots.has_value()) {
      ASSERT_EQ(slots->size(), n);
      EXPECT_EQ(encode_slots(kTagEcho, *slots), msg);
    }
  }
}

TEST(GradecastWireFuzz, SlotsEncodingGoldenBytes) {
  // Pins the slot wire layout: tag u8, varint slot count, then per slot a
  // presence u8 followed (when present) by varint length + bytes. An
  // encoder change that altered any of these bytes would break
  // mixed-version deployments.
  std::vector<Slot> slots(3);
  slots[0] = Bytes{0xAA, 0xBB};
  slots[2] = Bytes{};  // present but empty — distinct from absent
  EXPECT_EQ(encode_slots(kTagEcho, slots),
            (Bytes{0x02, 3, 1, 2, 0xAA, 0xBB, 0, 1, 0}));
  EXPECT_EQ(encode_leader(Bytes{0x07}), (Bytes{0x01, 1, 0x07}));
}

// The pointer-bump encoder sizes the message up front and memcpys each
// slot body; bodies straddling the one-to-two-byte varint length boundary
// (127/128) must round-trip exactly through the zero-copy decoder, both
// copied out and as views, with the message exactly as long as its layout.
// A 64-slot echo, half values and half ⊥, must too.
TEST(GradecastWireFuzz, SlotBodiesRoundTripAtEverySize) {
  for (std::size_t len = 0; len <= 300; ++len) {
    Bytes body(len);
    for (std::size_t i = 0; i < len; ++i) {
      body[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    const Bytes half(body.begin(), body.begin() + static_cast<long>(len / 2));
    const std::vector<Slot> slots{body, std::nullopt, half};
    const Bytes msg = encode_slots(kTagSupport, slots);
    EXPECT_EQ(msg.size(), 1 + 1 + (1 + varint_len(len) + len) + 1 +
                              (1 + varint_len(len / 2) + len / 2))
        << "len " << len;
    ASSERT_EQ(decode_owned(kTagSupport, msg, 3), slots) << "len " << len;

    std::vector<SlotView> views(3);
    ASSERT_TRUE(decode_slots_view(kTagSupport, msg, views));
    ASSERT_TRUE(views[0].has_value());
    EXPECT_FALSE(views[1].has_value());
    ASSERT_TRUE(views[2].has_value());
    EXPECT_TRUE(std::equal(views[0]->begin(), views[0]->end(), body.begin(),
                           body.end()));
    EXPECT_TRUE(std::equal(views[2]->begin(), views[2]->end(), half.begin(),
                           half.end()));
    // Views alias the message buffer rather than copying out of it.
    EXPECT_GE(views[0]->data(), msg.data());
    EXPECT_LE(views[2]->data() + views[2]->size(), msg.data() + msg.size());
  }

  // A wide echo: 64 slots, every other one a 24-byte value, the rest ⊥.
  std::vector<Slot> echo(64);
  Rng rng(0xC0DEC);
  for (std::size_t i = 0; i < echo.size(); i += 2) {
    Bytes value(24);
    for (auto& b : value) b = static_cast<std::uint8_t>(rng.index(256));
    echo[i] = std::move(value);
  }
  const Bytes msg = encode_slots(kTagEcho, echo);
  EXPECT_EQ(msg.size(), 1 + 1 + 32 * (1 + 1 + 24) + 32);
  ASSERT_EQ(decode_owned(kTagEcho, msg, echo.size()), echo);
  std::vector<SlotView> views(echo.size());
  ASSERT_TRUE(decode_slots_view(kTagEcho, msg, views));
  for (std::size_t i = 0; i < echo.size(); ++i) {
    ASSERT_EQ(views[i].has_value(), echo[i].has_value()) << "slot " << i;
    if (echo[i].has_value()) {
      EXPECT_TRUE(std::equal(views[i]->begin(), views[i]->end(),
                             echo[i]->begin(), echo[i]->end()))
          << "slot " << i;
    }
  }
}

// encode_slots must stay byte-identical to the straightforward ByteWriter
// encoding of the same layout, on arbitrary slot vectors.
TEST(GradecastWireFuzz, SlotsMatchIncrementalByteWriterEncoding) {
  Rng rng(0x5107B);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Slot> slots(rng.index(20));
    for (Slot& s : slots) {
      if (rng.chance(0.3)) continue;
      Bytes body(rng.index(200), 0);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      s = std::move(body);
    }
    ByteWriter w;
    w.u8(kTagEcho);
    w.varint(slots.size());
    for (const Slot& s : slots) {
      w.u8(static_cast<std::uint8_t>(s.has_value()));
      if (s.has_value()) w.blob(*s);
    }
    ASSERT_EQ(encode_slots(kTagEcho, slots), w.bytes()) << "iteration " << iter;
  }
}

// The masked encoder writes the echo straight from the leader values: its
// bytes must equal encode_slots on a copy whose masked slots are ⊥.
TEST(GradecastWireFuzz, MaskedSlotsMatchCopiedSlots) {
  Rng rng(0x3A5C);
  for (int iter = 0; iter < 500; ++iter) {
    std::vector<Slot> slots(rng.index(20));
    std::vector<bool> bottom(slots.size());
    for (std::size_t i = 0; i < slots.size(); ++i) {
      bottom[i] = rng.chance(0.3);
      if (rng.chance(0.3)) continue;
      Bytes body(rng.index(150), 0);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      slots[i] = std::move(body);
    }
    std::vector<Slot> copy = slots;
    for (std::size_t i = 0; i < copy.size(); ++i) {
      if (bottom[i]) copy[i] = std::nullopt;
    }
    ASSERT_EQ(encode_slots(kTagEcho, slots, bottom),
              encode_slots(kTagEcho, copy))
        << "iteration " << iter;
  }
  EXPECT_THROW((void)encode_slots(kTagEcho, std::vector<Slot>(3),
                                  std::vector<bool>(2)),
               std::invalid_argument);
}

TEST(GradecastWireFuzz, BitFlipsNeverCrashTheDecoder) {
  // The net fault plan's corrupt action flips payload bits; every single-bit
  // variant of a valid message must decode cleanly or fail cleanly.
  const Bytes msg =
      encode_slots(kTagEcho, {Bytes{1, 2, 3}, std::nullopt, Bytes{4}});
  for (std::size_t byte = 0; byte < msg.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes flipped = msg;
      flipped[byte] ^= static_cast<std::uint8_t>(1u << bit);
      (void)decode_owned(kTagEcho, flipped, 3);
      (void)decode_leader(flipped);
    }
  }
}

/// The slots `msg` decodes to through decode_slots (the slot index), or
/// nullopt when it rejects them.
std::optional<std::vector<Slot>> decode_indexed(std::uint8_t tag,
                                                const perf::Payload& msg,
                                                std::size_t n,
                                                SlotScratch& scratch) {
  const std::optional<SlotRow> row = decode_slots(tag, msg, n, scratch);
  if (!row.has_value()) return std::nullopt;
  std::vector<Slot> slots(n);
  for (std::size_t i = 0; i < n; ++i) {
    const SlotView view = (*row)[i];
    if (view.has_value()) slots[i] = Bytes(view->begin(), view->end());
  }
  return slots;
}

// Random slot messages with a few flipped bits decode to the same verdict
// and the same slots through the index decoder as through decode_slots_view
// (owned_slots.h), both on an unshared payload (decoded into the caller's
// scratch) and on a shared one (decoded once into the payload's memo, which
// a second handle then reads without touching its scratch).
TEST(GradecastWireFuzz, IndexDecoderMatchesViewDecoderOnBitFlips) {
  Rng rng(0x1DE7);
  std::size_t accepted = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    const std::size_t n = 1 + rng.index(8);
    const std::uint8_t tag = rng.chance(0.5) ? kTagEcho : kTagSupport;
    std::vector<Slot> slots(n);
    for (Slot& s : slots) {
      if (rng.chance(0.3)) continue;
      Bytes body(rng.index(rng.chance(0.1) ? 200 : 6), 0);
      for (auto& b : body) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      s = std::move(body);
    }
    Bytes msg = encode_slots(tag, slots);
    const std::size_t flips = rng.index(4);
    for (std::size_t f = 0; f < flips; ++f) {
      msg[rng.index(msg.size())] ^=
          static_cast<std::uint8_t>(1u << rng.index(8));
    }
    const auto want = decode_owned(tag, msg, n);
    if (want.has_value()) ++accepted;

    SlotScratch local;
    EXPECT_EQ(decode_indexed(tag, perf::Payload(msg), n, local), want)
        << "unshared, iteration " << iter;

    const perf::Payload shared(msg);
    const perf::Payload other = shared;
    SlotScratch first;
    SlotScratch second;
    EXPECT_EQ(decode_indexed(tag, shared, n, first), want)
        << "memo fill, iteration " << iter;
    EXPECT_EQ(decode_indexed(tag, other, n, second), want)
        << "memo read, iteration " << iter;
    EXPECT_TRUE(first.empty() && second.empty())
        << "a shared payload must be decoded into its memo, iteration "
        << iter;
    // The same bytes read under another arity or tag are decoded afresh.
    const std::uint8_t other_tag = tag == kTagEcho ? kTagSupport : kTagEcho;
    EXPECT_EQ(decode_indexed(other_tag, other, n, second),
              decode_owned(other_tag, msg, n))
        << "foreign tag, iteration " << iter;
    EXPECT_EQ(decode_indexed(tag, other, n + 1, second),
              decode_owned(tag, msg, n + 1))
        << "foreign arity, iteration " << iter;
    if (HasFailure()) return;
  }
  EXPECT_GT(accepted, 500u) << "most messages should survive their flips";
  EXPECT_LT(accepted, 2900u) << "some flips must break the encoding";
}

}  // namespace
}  // namespace treeaa::gradecast

// Wire-format round trips and hostile-input hardening for ByteWriter /
// ByteReader. Every protocol parser in the repository sits on top of this
// layer, so garbage handling here is load-bearing for Byzantine tolerance.
#include "common/bytes.h"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "common/rng.h"

namespace treeaa {
namespace {

TEST(Bytes, VarintRoundTripSmall) {
  for (std::uint64_t v = 0; v < 1000; ++v) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v);
    EXPECT_TRUE(r.done());
  }
}

TEST(Bytes, VarintRoundTripBoundaries) {
  const std::uint64_t cases[] = {
      0,       0x7F,       0x80,       0x3FFF,     0x4000,
      1u << 21, 1ull << 35, 1ull << 56, ~0ull >> 1, ~0ull};
  for (const std::uint64_t v : cases) {
    ByteWriter w;
    w.varint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.varint(), v) << v;
  }
}

TEST(Bytes, VarintEncodingIsCompact) {
  ByteWriter w;
  w.varint(5);
  EXPECT_EQ(w.size(), 1u);
  ByteWriter w2;
  w2.varint(300);
  EXPECT_EQ(w2.size(), 2u);
}

TEST(Bytes, SignedVarintRoundTrip) {
  const std::int64_t cases[] = {0,
                                1,
                                -1,
                                63,
                                -64,
                                64,
                                -65,
                                1000000,
                                -1000000,
                                std::numeric_limits<std::int64_t>::max(),
                                std::numeric_limits<std::int64_t>::min()};
  for (const std::int64_t v : cases) {
    ByteWriter w;
    w.svarint(v);
    ByteReader r(w.bytes());
    EXPECT_EQ(r.svarint(), v) << v;
  }
}

TEST(Bytes, DoubleRoundTripExactBits) {
  const double cases[] = {0.0,  -0.0, 1.0,   -1.5,
                          3.25, 1e300, -1e-300, 0.1};
  for (const double v : cases) {
    ByteWriter w;
    w.f64(v);
    EXPECT_EQ(w.size(), 8u);
    ByteReader r(w.bytes());
    const double got = r.f64();
    EXPECT_EQ(std::memcmp(&got, &v, sizeof v), 0) << v;
  }
}

TEST(Bytes, StringRoundTrip) {
  ByteWriter w;
  w.str("hello");
  w.str("");
  w.str(std::string("\0binary\xff", 8));
  ByteReader r(w.bytes());
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_EQ(r.str(), std::string("\0binary\xff", 8));
  EXPECT_TRUE(r.done());
}

TEST(Bytes, BlobRoundTrip) {
  Bytes payload{1, 2, 3, 255, 0};
  ByteWriter w;
  w.blob(payload);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.blob(), payload);
}

TEST(Bytes, VectorRoundTrip) {
  std::vector<std::uint64_t> v{1, 2, 300, 400000};
  ByteWriter w;
  w.vec(v, [](ByteWriter& wr, std::uint64_t x) { wr.varint(x); });
  ByteReader r(w.bytes());
  const auto got =
      r.vec<std::uint64_t>([](ByteReader& rd) { return rd.varint(); });
  EXPECT_EQ(got, v);
}

TEST(Bytes, MixedSequenceRoundTrip) {
  ByteWriter w;
  w.u8(7);
  w.varint(123456);
  w.f64(2.5);
  w.str("abc");
  w.svarint(-42);
  ByteReader r(w.bytes());
  EXPECT_EQ(r.u8(), 7);
  EXPECT_EQ(r.varint(), 123456u);
  EXPECT_EQ(r.f64(), 2.5);
  EXPECT_EQ(r.str(), "abc");
  EXPECT_EQ(r.svarint(), -42);
  r.expect_done();
}

// --- Varint cursor primitives ----------------------------------------------

TEST(Bytes, VarintRoundTripsBoundaryValues) {
  const std::vector<std::uint64_t> values = {
      0,       1,         127,        128,       16383,
      16384,   2097151,   2097152,    268435455, 268435456,
      1u << 31, std::uint64_t{1} << 42, std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max()};
  for (const std::uint64_t v : values) {
    std::uint8_t buf[10];
    std::uint8_t* end = write_varint(buf, v);
    EXPECT_EQ(static_cast<std::size_t>(end - buf), varint_len(v));
    ByteWriter w;
    w.varint(v);
    EXPECT_EQ(Bytes(buf, end), w.bytes()) << v;
    std::uint64_t back = 0;
    const std::uint8_t* p = buf;
    ASSERT_TRUE(read_varint(p, end, back)) << v;
    EXPECT_EQ(back, v);
    EXPECT_EQ(p, end);
  }
}

TEST(Bytes, VarintRejectsTruncatedAndNonCanonical) {
  // Truncated: every strict prefix of a multi-byte encoding fails.
  std::uint8_t buf[10];
  const std::uint8_t* enc_end =
      write_varint(buf, std::numeric_limits<std::uint64_t>::max());
  for (const std::uint8_t* cut = buf; cut != enc_end; ++cut) {
    std::uint64_t out = 0;
    const std::uint8_t* p = buf;
    EXPECT_FALSE(read_varint(p, cut, out));
  }
  // Over-long: ten continuation bytes never terminate within the limit.
  std::uint8_t overlong[11];
  std::memset(overlong, 0x80, sizeof(overlong));
  std::uint64_t out = 0;
  const std::uint8_t* p = overlong;
  EXPECT_FALSE(read_varint(p, overlong + sizeof(overlong), out));
  // Non-canonical final byte: the tenth byte may only contribute one bit.
  std::uint8_t high[10];
  std::memset(high, 0x80, 9);
  high[9] = 0x02;  // shifts a bit past position 63
  p = high;
  EXPECT_FALSE(read_varint(p, high + 10, out));
  // The canonical max encoding (final byte 0x01) is accepted.
  std::uint8_t max_enc[10];
  std::memset(max_enc, 0xFF, 9);
  max_enc[9] = 0x01;
  p = max_enc;
  ASSERT_TRUE(read_varint(p, max_enc + 10, out));
  EXPECT_EQ(out, std::numeric_limits<std::uint64_t>::max());
}

// The noexcept cursor decoder and the throwing reader are two front ends on
// one format: on arbitrary bytes they must accept the same prefixes, decode
// the same value, and consume the same number of bytes.
TEST(Bytes, ReadVarintAcceptsExactlyWhatByteReaderAccepts) {
  Rng rng(0x1EB128);
  int accepted = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    Bytes msg(rng.index(12), 0);
    for (auto& b : msg) {
      // Bias towards continuation bytes so long encodings are common.
      b = static_cast<std::uint8_t>(rng.next() & 0xFF);
      if (rng.chance(0.7)) b |= 0x80;
    }
    std::uint64_t cursor_value = 0;
    const std::uint8_t* p = msg.data();
    const bool cursor_ok = read_varint(p, msg.data() + msg.size(), cursor_value);

    ByteReader r(msg);
    bool reader_ok = true;
    std::uint64_t reader_value = 0;
    try {
      reader_value = r.varint();
    } catch (const DecodeError&) {
      reader_ok = false;
    }
    ASSERT_EQ(cursor_ok, reader_ok) << "iteration " << iter;
    if (cursor_ok) {
      ++accepted;
      EXPECT_EQ(cursor_value, reader_value);
      EXPECT_EQ(static_cast<std::size_t>(p - msg.data()),
                msg.size() - r.remaining());
    }
  }
  EXPECT_GT(accepted, 100);
}

// --- Little-endian f64 helpers ----------------------------------------------

TEST(Bytes, StoreLoadF64LeRoundTripsSpecialsBitForBit) {
  const double values[] = {0.0,
                           -0.0,
                           1.0,
                           -1.0,
                           3.141592653589793,
                           1e308,
                           -1e308,
                           std::numeric_limits<double>::denorm_min(),
                           std::numeric_limits<double>::min(),
                           std::numeric_limits<double>::max(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(),
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::signaling_NaN()};
  for (const double v : values) {
    std::uint8_t buf[8];
    store_f64_le(buf, v);
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i) {
      EXPECT_EQ(buf[i], static_cast<std::uint8_t>(bits >> (8 * i)))
          << "byte " << i << " of " << v;
    }
    const double back = load_f64_le(buf);
    EXPECT_EQ(std::memcmp(&back, &v, sizeof v), 0) << v;
  }
  // The format golden: IEEE-754 1.0, little endian.
  std::uint8_t one[8];
  store_f64_le(one, 1.0);
  const std::uint8_t expected[8] = {0, 0, 0, 0, 0, 0, 0xF0, 0x3F};
  EXPECT_EQ(std::memcmp(one, expected, 8), 0);
}

// Codecs store and load f64 straight into message buffers at arbitrary
// offsets, so the helpers must work unaligned, agree byte for byte with
// ByteWriter::f64, and never write outside their 8 bytes.
TEST(Bytes, F64LeHelpersMatchWriterAndReaderAtEveryOffset) {
  const double values[] = {2.5, -0.0, 1e-300,
                           std::numeric_limits<double>::max()};
  for (const double v : values) {
    ByteWriter w;
    w.f64(v);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      Bytes buf(offset + 8 + 1, 0xEE);
      store_f64_le(buf.data() + offset, v);
      EXPECT_EQ(Bytes(buf.begin() + static_cast<long>(offset),
                      buf.begin() + static_cast<long>(offset + 8)),
                w.bytes())
          << "offset " << offset;
      // Neighbouring bytes are untouched.
      for (std::size_t i = 0; i < offset; ++i) EXPECT_EQ(buf[i], 0xEE);
      EXPECT_EQ(buf.back(), 0xEE);

      const double loaded = load_f64_le(buf.data() + offset);
      EXPECT_EQ(std::memcmp(&loaded, &v, sizeof v), 0);
    }
  }
}

// --- Hostile input ----------------------------------------------------------

TEST(Bytes, TruncatedVarintThrows) {
  const Bytes b{0x80, 0x80};  // continuation bits with no terminator
  ByteReader r(b);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, OverlongVarintThrows) {
  const Bytes b{0x80, 0x80, 0x80, 0x80, 0x80, 0x80,
                0x80, 0x80, 0x80, 0x80, 0x01};  // 11 bytes
  ByteReader r(b);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, VarintOverflowThrows) {
  // 10 bytes whose top byte pushes past 64 bits.
  const Bytes b{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F};
  ByteReader r(b);
  EXPECT_THROW(r.varint(), DecodeError);
}

TEST(Bytes, TruncatedDoubleThrows) {
  const Bytes b{1, 2, 3};
  ByteReader r(b);
  EXPECT_THROW(r.f64(), DecodeError);
}

TEST(Bytes, StringLengthBeyondBufferThrows) {
  ByteWriter w;
  w.varint(1000);  // claims 1000 bytes follow
  w.u8('x');
  ByteReader r(w.bytes());
  EXPECT_THROW(r.str(), DecodeError);
}

TEST(Bytes, HostileVectorLengthRejectedBeforeAllocation) {
  ByteWriter w;
  w.varint(~0ull >> 1);  // absurd element count
  ByteReader r(w.bytes());
  EXPECT_THROW(r.vec<std::uint8_t>([](ByteReader& rd) { return rd.u8(); }),
               DecodeError);
}

TEST(Bytes, VectorLengthAboveCapThrows) {
  std::vector<std::uint8_t> v(100, 1);
  ByteWriter w;
  w.vec(v, [](ByteWriter& wr, std::uint8_t x) { wr.u8(x); });
  ByteReader r(w.bytes());
  EXPECT_THROW(
      r.vec<std::uint8_t>([](ByteReader& rd) { return rd.u8(); },
                          /*max_len=*/99),
      DecodeError);
}

TEST(Bytes, ExpectDoneThrowsOnTrailingJunk) {
  ByteWriter w;
  w.u8(1);
  w.u8(2);
  ByteReader r(w.bytes());
  (void)r.u8();
  EXPECT_THROW(r.expect_done(), DecodeError);
}

TEST(Bytes, RandomGarbageNeverReadsOutOfBounds) {
  Rng rng(42);
  for (int trial = 0; trial < 500; ++trial) {
    Bytes b(rng.index(64));
    for (auto& x : b) x = static_cast<std::uint8_t>(rng.next());
    ByteReader r(b);
    // Parse an arbitrary structure; it must either succeed or throw, never
    // crash or hang.
    try {
      (void)r.varint();
      (void)r.blob();
      (void)r.f64();
    } catch (const DecodeError&) {
      // expected for most random buffers
    }
  }
}

}  // namespace
}  // namespace treeaa

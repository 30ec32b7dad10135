// Adversarial decoding of the RealAA value codec: truncated, oversized and
// random byte strings, plus the non-finite escape hatches a Byzantine
// leader would love to sneak past the trimming step.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/rng.h"
#include "realaa/wire.h"

namespace treeaa::realaa {
namespace {

Bytes raw_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  Bytes b(8);
  for (int i = 0; i < 8; ++i) {
    b[static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(bits >> (8 * i));
  }
  return b;
}

TEST(RealAAWireFuzz, RoundTripsFiniteValues) {
  for (const double v : {0.0, -0.0, 1.5, -3.25, 1e300, -1e-300,
                         std::numeric_limits<double>::max(),
                         std::numeric_limits<double>::denorm_min()}) {
    const auto decoded = decode_value(encode_value(v));
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(*decoded, v);
  }
}

TEST(RealAAWireFuzz, EncodingGoldenBytes) {
  // Pins the little-endian IEEE-754 layout of an encoded value, bit for
  // bit.
  EXPECT_EQ(encode_value(1.0), (Bytes{0, 0, 0, 0, 0, 0, 0xF0, 0x3F}));
  EXPECT_EQ(encode_value(-2.0), (Bytes{0, 0, 0, 0, 0, 0, 0x00, 0xC0}));
  EXPECT_EQ(encode_value(0.0), (Bytes{0, 0, 0, 0, 0, 0, 0, 0}));
}

TEST(RealAAWireFuzz, RejectsTruncatedAndOversized) {
  const Bytes msg = encode_value(42.0);
  ASSERT_EQ(msg.size(), 8u);
  for (std::size_t len = 0; len < msg.size(); ++len) {
    const Bytes prefix(msg.begin(), msg.begin() + static_cast<long>(len));
    EXPECT_EQ(decode_value(prefix), std::nullopt) << "prefix length " << len;
  }
  Bytes oversized = msg;
  oversized.push_back(0);
  EXPECT_EQ(decode_value(oversized), std::nullopt);
  EXPECT_EQ(decode_value(Bytes(64, 0xFF)), std::nullopt);
}

TEST(RealAAWireFuzz, RejectsNonFiniteBitPatterns) {
  EXPECT_EQ(decode_value(raw_f64(std::numeric_limits<double>::quiet_NaN())),
            std::nullopt);
  EXPECT_EQ(
      decode_value(raw_f64(std::numeric_limits<double>::signaling_NaN())),
      std::nullopt);
  EXPECT_EQ(decode_value(raw_f64(std::numeric_limits<double>::infinity())),
            std::nullopt);
  EXPECT_EQ(decode_value(raw_f64(-std::numeric_limits<double>::infinity())),
            std::nullopt);
}

// Every bit pattern with an all-ones exponent is an infinity or a NaN,
// whatever its sign and mantissa (NaN payloads included); every pattern
// just below it is finite and must decode to exactly that value.
TEST(RealAAWireFuzz, FinitenessCheckCoversEveryExponentAllOnesPattern) {
  Rng rng(0xE4F);
  for (int iter = 0; iter < 2000; ++iter) {
    const std::uint64_t sign = rng.chance(0.5) ? std::uint64_t{1} << 63 : 0;
    const std::uint64_t mantissa =
        iter == 0 ? 0 : rng.next() & ((std::uint64_t{1} << 52) - 1);
    const std::uint64_t non_finite =
        sign | (std::uint64_t{0x7FF} << 52) | mantissa;
    const std::uint64_t largest_exponent =
        sign | (std::uint64_t{0x7FE} << 52) | mantissa;
    Bytes msg(8);
    for (int i = 0; i < 8; ++i) {
      msg[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(non_finite >> (8 * i));
    }
    EXPECT_EQ(decode_value(msg), std::nullopt) << std::hex << non_finite;
    for (int i = 0; i < 8; ++i) {
      msg[static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(largest_exponent >> (8 * i));
    }
    const auto decoded = decode_value(msg);
    ASSERT_TRUE(decoded.has_value()) << std::hex << largest_exponent;
    EXPECT_EQ(encode_value(*decoded), msg);
  }
}

// Decode hot paths hand in payload views at arbitrary offsets; the load
// must not assume 8-byte alignment.
TEST(RealAAWireFuzz, DecodesUnalignedViews) {
  const double values[] = {-2.0, 0.1, 1e300, -0.0};
  for (const double v : values) {
    const Bytes enc = encode_value(v);
    for (std::size_t offset = 0; offset < 8; ++offset) {
      Bytes buf(offset, 0xAB);
      buf.insert(buf.end(), enc.begin(), enc.end());
      buf.push_back(0xCD);
      const auto decoded =
          decode_value(std::span<const std::uint8_t>(buf).subspan(offset, 8));
      ASSERT_TRUE(decoded.has_value()) << "offset " << offset;
      EXPECT_EQ(std::memcmp(&*decoded, &v, sizeof v), 0) << "offset " << offset;
    }
  }
}

TEST(RealAAWireFuzz, RandomBytesDecodeFiniteOrNotAtAll) {
  Rng rng(0xF10A7);
  int decoded_count = 0;
  for (int iter = 0; iter < 5000; ++iter) {
    Bytes msg(rng.chance(0.8) ? 8 : rng.index(16), 0);
    for (auto& b : msg) b = static_cast<std::uint8_t>(rng.next() & 0xFF);
    const auto v = decode_value(msg);
    if (v.has_value()) {
      ++decoded_count;
      EXPECT_TRUE(std::isfinite(*v));
      EXPECT_EQ(encode_value(*v), msg);  // canonical: bit-exact round-trip
    } else {
      EXPECT_TRUE(msg.size() != 8 || !std::isfinite(
          [&] {
            double d;
            std::memcpy(&d, msg.data(), 8);
            return d;
          }()));
    }
  }
  // Random 8-byte strings are overwhelmingly finite doubles; the loop must
  // actually have exercised the accept path.
  EXPECT_GT(decoded_count, 1000);
}

}  // namespace
}  // namespace treeaa::realaa

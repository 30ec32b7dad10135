// Binary wire format used by every protocol message in the simulator.
//
// The synchronous network carries opaque byte strings: protocols serialize
// their messages with ByteWriter and parse received bytes with ByteReader.
// Keeping the wire format explicit (instead of passing typed objects through
// the simulator) matters for fault tolerance testing: Byzantine strategies
// can and do inject arbitrary byte strings, so every protocol's parser must
// reject garbage gracefully. ByteReader therefore never reads out of bounds
// and signals malformed input via DecodeError.
//
// Encoding choices:
//   * unsigned integers  — LEB128 varint (compact for the small ids/rounds
//                          that dominate protocol traffic)
//   * signed integers    — zigzag + varint
//   * doubles            — 8-byte little-endian IEEE-754 bit pattern
//   * strings / blobs    — varint length prefix + raw bytes
#pragma once

#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace treeaa {

using Bytes = std::vector<std::uint8_t>;

namespace detail {
/// Wire order is little endian; on LE hosts f64 moves as one 8-byte memcpy
/// instead of a byte loop. Big-endian hosts take the portable byte-shift
/// paths.
inline constexpr bool kWireIsNativeOrder =
#if defined(__BYTE_ORDER__) && (__BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__)
    true;
#else
    false;
#endif
}  // namespace detail

/// Stores a double's IEEE-754 bit pattern at `dst` (8 bytes, little endian).
inline void store_f64_le(std::uint8_t* dst, double v) {
  std::uint64_t bits;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  if constexpr (detail::kWireIsNativeOrder) {
    std::memcpy(dst, &bits, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      dst[i] = static_cast<std::uint8_t>(bits >> (8 * i));
    }
  }
}

/// Loads a little-endian IEEE-754 double from the 8 bytes at `src`.
[[nodiscard]] inline double load_f64_le(const std::uint8_t* src) {
  std::uint64_t bits = 0;
  if constexpr (detail::kWireIsNativeOrder) {
    std::memcpy(&bits, src, 8);
  } else {
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<std::uint64_t>(src[i]) << (8 * i);
    }
  }
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Raised by ByteReader on any malformed input (truncation, overlong varint,
/// length prefix exceeding the remaining buffer, ...).
class DecodeError : public std::runtime_error {
 public:
  explicit DecodeError(const std::string& what) : std::runtime_error(what) {}
};

/// Appends primitive values to a growing byte buffer.
class ByteWriter {
 public:
  ByteWriter() = default;

  void u8(std::uint8_t v) { buf_.push_back(v); }

  /// LEB128 varint, up to 10 bytes for a 64-bit value.
  void varint(std::uint64_t v) {
    while (v >= 0x80) {
      buf_.push_back(static_cast<std::uint8_t>(v) | 0x80u);
      v >>= 7;
    }
    buf_.push_back(static_cast<std::uint8_t>(v));
  }

  /// Zigzag-encoded signed varint.
  void svarint(std::int64_t v) {
    const auto u = static_cast<std::uint64_t>(v);
    varint((u << 1) ^ static_cast<std::uint64_t>(v >> 63));
  }

  /// IEEE-754 bit pattern, little endian.
  void f64(double v) {
    const std::size_t off = buf_.size();
    buf_.resize(off + 8);
    store_f64_le(buf_.data() + off, v);
  }

  void str(std::string_view s) {
    varint(s.size());
    buf_.insert(buf_.end(), s.begin(), s.end());
  }

  void blob(std::span<const std::uint8_t> b) {
    varint(b.size());
    buf_.insert(buf_.end(), b.begin(), b.end());
  }

  /// Varint length prefix followed by each element written via `fn`.
  template <typename T, typename Fn>
  void vec(const std::vector<T>& v, Fn&& fn) {
    varint(v.size());
    for (const T& x : v) fn(*this, x);
  }

  [[nodiscard]] const Bytes& bytes() const& { return buf_; }
  [[nodiscard]] Bytes take() && { return std::move(buf_); }
  [[nodiscard]] std::size_t size() const { return buf_.size(); }

 private:
  Bytes buf_;
};

// --- Varint cursor primitives ----------------------------------------------
// For encoders that size their output exactly up front and for noexcept
// cursor decoders. Semantics are byte-identical to ByteWriter::varint /
// ByteReader::varint, including the canonicality rejection of overlong
// encodings.

/// The encoded length of a LEB128 varint, 1..10 bytes.
[[nodiscard]] inline std::size_t varint_len(std::uint64_t v) {
  std::size_t len = 1;
  while (v >= 0x80) {
    v >>= 7;
    ++len;
  }
  return len;
}

/// Writes a LEB128 varint at `dst`; returns the cursor past the last byte.
inline std::uint8_t* write_varint(std::uint8_t* dst, std::uint64_t v) {
  while (v >= 0x80) {
    *dst++ = static_cast<std::uint8_t>(v) | 0x80u;
    v >>= 7;
  }
  *dst++ = static_cast<std::uint8_t>(v);
  return dst;
}

/// Reads a LEB128 varint from [p, end), advancing p. Returns false on
/// truncation, >10-byte encodings, or non-canonical encodings that would
/// overflow 64 bits — exactly the inputs ByteReader::varint throws on.
[[nodiscard]] inline bool read_varint(const std::uint8_t*& p,
                                      const std::uint8_t* end,
                                      std::uint64_t& out) noexcept {
  std::uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 7) {
    if (p == end) return false;
    const std::uint8_t b = *p++;
    v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
    if ((b & 0x80u) == 0) {
      if (shift == 63 && b > 1) return false;
      out = v;
      return true;
    }
  }
  return false;
}

/// Sequentially parses a byte buffer written by ByteWriter. All reads are
/// bounds-checked; malformed input raises DecodeError and never touches
/// memory outside the span.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] bool done() const { return pos_ == data_.size(); }
  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }

  std::uint64_t varint() {
    std::uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      need(1, "varint");
      const std::uint8_t b = data_[pos_++];
      v |= static_cast<std::uint64_t>(b & 0x7Fu) << shift;
      if ((b & 0x80u) == 0) {
        // Reject non-canonical encodings that would silently overflow.
        if (shift == 63 && b > 1) throw DecodeError("varint overflows u64");
        return v;
      }
    }
    throw DecodeError("varint longer than 10 bytes");
  }

  std::int64_t svarint() {
    const std::uint64_t u = varint();
    return static_cast<std::int64_t>((u >> 1) ^ (~(u & 1) + 1));
  }

  double f64() {
    need(8, "f64");
    const double v = load_f64_le(data_.data() + pos_);
    pos_ += 8;
    return v;
  }

  std::string str() {
    const std::uint64_t len = varint();
    need(len, "str body");
    std::string s(reinterpret_cast<const char*>(data_.data() + pos_),
                  static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return s;
  }

  Bytes blob() {
    const std::uint64_t len = varint();
    need(len, "blob body");
    Bytes b(data_.begin() + static_cast<std::ptrdiff_t>(pos_),
            data_.begin() + static_cast<std::ptrdiff_t>(pos_ + len));
    pos_ += static_cast<std::size_t>(len);
    return b;
  }

  /// Like blob(), but returns a view into the underlying buffer instead of
  /// copying. The view is valid only while the buffer the reader was
  /// constructed over stays alive — decode hot paths use it to defer (or
  /// skip) the copy, retaining owned Bytes only for state kept across
  /// rounds.
  std::span<const std::uint8_t> blob_view() {
    const std::uint64_t len = varint();
    need(len, "blob body");
    const auto view = data_.subspan(pos_, static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return view;
  }

  /// Reads a length-prefixed vector; `max_len` guards against hostile length
  /// prefixes allocating unbounded memory.
  template <typename T, typename Fn>
  std::vector<T> vec(Fn&& fn, std::uint64_t max_len = 1u << 20) {
    const std::uint64_t len = varint();
    if (len > max_len) throw DecodeError("vector length exceeds limit");
    // Each element consumes at least one byte, so a hostile prefix larger
    // than the remaining buffer is rejected before any allocation.
    if (len > remaining()) throw DecodeError("vector length exceeds buffer");
    std::vector<T> v;
    v.reserve(static_cast<std::size_t>(len));
    for (std::uint64_t i = 0; i < len; ++i) v.push_back(fn(*this));
    return v;
  }

  /// Requires that the whole buffer was consumed; trailing junk is malformed.
  void expect_done() const {
    if (!done()) throw DecodeError("trailing bytes after message");
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > remaining()) truncated(what);
  }

  // A separate noreturn function, so the compiler sees the failure path end
  // at the call and never reasons about reads past a short buffer there.
  [[noreturn]] static void truncated(const char* what) {
    throw DecodeError(std::string("truncated input reading ") + what);
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace treeaa

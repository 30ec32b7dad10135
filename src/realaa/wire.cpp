#include "realaa/wire.h"

#include <cmath>

namespace treeaa::realaa {

Bytes encode_value(double v) {
  Bytes out(8);
  store_f64_le(out.data(), v);
  return out;
}

// Batched decoder: a value message is exactly 8 bytes (the old reader-based
// parser threw on both truncation and trailing bytes, i.e. size != 8), so
// the parse is one size check, one LE load, one finiteness test — no
// exceptions on the Byzantine-garbage path.
std::optional<double> decode_value(std::span<const std::uint8_t> b) {
  if (b.size() != 8) return std::nullopt;
  const double v = load_f64_le(b.data());
  if (!std::isfinite(v)) return std::nullopt;
  return v;
}

}  // namespace treeaa::realaa

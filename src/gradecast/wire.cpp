#include "gradecast/wire.h"

#include <cstring>

#include "common/check.h"

namespace treeaa::gradecast {

Bytes encode_leader(const Bytes& value) {
  ByteWriter w;
  w.u8(kTagLeader);
  w.blob(value);
  return std::move(w).take();
}

std::optional<Bytes> decode_leader(ByteView msg) {
  const auto view = decode_leader_view(msg);
  if (!view.has_value()) return std::nullopt;
  return Bytes(view->begin(), view->end());
}

std::optional<ByteView> decode_leader_view(ByteView msg) {
  try {
    ByteReader r(msg);
    if (r.u8() != kTagLeader) return std::nullopt;
    const ByteView value = r.blob_view();
    r.expect_done();
    return value;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

namespace {

// Batched encoder: the slot-vector layout — tag, varint count, then per
// slot a presence byte followed by (varint length, bytes) — is sized
// exactly up front, so the whole message is one allocation filled by a
// pointer-bump cursor with memcpy for the slot bodies. Byte
// output is identical to the old incremental ByteWriter encoder (pinned by
// the codec goldens). Slot i is written as ⊥ when `bottom(i)` holds.
template <typename Bottom>
Bytes encode_slots_impl(std::uint8_t tag, const std::vector<Slot>& slots,
                        Bottom bottom) {
  const auto present = [&](std::size_t i) {
    return slots[i].has_value() && !bottom(i);
  };
  std::size_t total = 1 + varint_len(slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    total += 1;
    if (present(i)) total += varint_len(slots[i]->size()) + slots[i]->size();
  }
  Bytes out(total);
  std::uint8_t* p = out.data();
  *p++ = tag;
  p = write_varint(p, slots.size());
  for (std::size_t i = 0; i < slots.size(); ++i) {
    if (present(i)) {
      const Bytes& s = *slots[i];
      *p++ = 1;
      p = write_varint(p, s.size());
      if (!s.empty()) std::memcpy(p, s.data(), s.size());
      p += s.size();
    } else {
      *p++ = 0;
    }
  }
  TREEAA_CHECK(p == out.data() + total);
  return out;
}

}  // namespace

Bytes encode_slots(std::uint8_t tag, const std::vector<Slot>& slots) {
  return encode_slots_impl(tag, slots, [](std::size_t) { return false; });
}

Bytes encode_slots(std::uint8_t tag, const std::vector<Slot>& slots,
                   const std::vector<bool>& bottom) {
  TREEAA_REQUIRE(bottom.size() == slots.size());
  return encode_slots_impl(tag, slots,
                           [&](std::size_t i) { return bottom[i]; });
}

// Batched decoder: a noexcept raw-pointer cursor over the message instead
// of a throwing ByteReader — the hot realaa/tree-AA delivery path calls
// this once per received echo/support vector, and exception plumbing is
// pure overhead when malformed input is an expected case (Byzantine
// senders). Accepts and rejects exactly the inputs a ByteReader-based
// parser of the same layout would, including non-canonical varints.
bool decode_slots_view(std::uint8_t tag, ByteView msg,
                       std::span<SlotView> out) {
  const std::uint8_t* p = msg.data();
  const std::uint8_t* const end = p + msg.size();
  if (p == end || *p++ != tag) return false;
  std::uint64_t count = 0;
  if (!read_varint(p, end, count)) return false;
  if (count != out.size()) return false;
  for (SlotView& slot : out) {
    if (p == end) return false;
    if (*p++ == 0) {
      slot = std::nullopt;
    } else {
      std::uint64_t len = 0;
      if (!read_varint(p, end, len)) return false;
      if (len > static_cast<std::uint64_t>(end - p)) return false;
      slot = ByteView(p, static_cast<std::size_t>(len));
      p += len;
    }
  }
  return p == end;
}

}  // namespace treeaa::gradecast

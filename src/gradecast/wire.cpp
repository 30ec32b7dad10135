#include "gradecast/wire.h"

#include <cstring>
#include <limits>

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

namespace {

// The one slot-vector parser, a noexcept raw-pointer cursor over the
// message instead of a throwing ByteReader: the hot realaa/tree-AA
// delivery path runs it on every received echo/support vector it cannot
// read from a memo, and exception plumbing is pure overhead when malformed
// input is an expected case (Byzantine senders). Accepts and rejects
// exactly the inputs a ByteReader-based parser of the same layout would,
// including non-canonical varints. Calls on_slot(i, offset, length) for
// every slot in order, with offset 0 for ⊥; on false, the calls made so far
// mean nothing.
template <typename OnSlot>
bool parse_slots(std::uint8_t tag, ByteView msg, std::size_t count,
                 OnSlot on_slot) {
  const std::uint8_t* const begin = msg.data();
  const std::uint8_t* p = begin;
  const std::uint8_t* const end = p + msg.size();
  if (p == end || *p++ != tag) return false;
  std::uint64_t wire_count = 0;
  if (!read_varint(p, end, wire_count)) return false;
  if (wire_count != count) return false;
  for (std::size_t i = 0; i < count; ++i) {
    if (p == end) return false;
    if (*p++ == 0) {
      on_slot(i, std::size_t{0}, std::size_t{0});
    } else {
      std::uint64_t len = 0;
      if (!read_varint(p, end, len)) return false;
      if (len > static_cast<std::uint64_t>(end - p)) return false;
      on_slot(i, static_cast<std::size_t>(p - begin),
              static_cast<std::size_t>(len));
      p += len;
    }
  }
  return p == end;
}

// Fills the slot index of a `tag` message of `index.size() / 2` slots (see
// SlotRow). The one place that enforces the uint32_t offset limit.
bool index_slots(std::uint8_t tag, ByteView msg,
                 std::span<std::uint32_t> index) {
  TREEAA_REQUIRE(msg.size() <= std::numeric_limits<std::uint32_t>::max());
  return parse_slots(tag, msg, index.size() / 2,
                     [&](std::size_t i, std::size_t offset, std::size_t len) {
                       index[2 * i] = static_cast<std::uint32_t>(offset);
                       index[2 * i + 1] = static_cast<std::uint32_t>(len);
                     });
}

std::uint64_t slots_memo_key(std::uint8_t tag, std::size_t count) {
  return (static_cast<std::uint64_t>(count) << 8) | tag;
}

}  // namespace

bool decode_slots_view(std::uint8_t tag, ByteView msg,
                       std::span<SlotView> out) {
  return parse_slots(tag, msg, out.size(),
                     [&](std::size_t i, std::size_t offset, std::size_t len) {
                       out[i] = offset == 0 ? SlotView()
                                            : ByteView(msg.data() + offset,
                                                       len);
                     });
}

std::optional<SlotRow> decode_slots(std::uint8_t tag, const perf::Payload& msg,
                                    std::size_t count, SlotScratch& scratch) {
  const perf::PayloadMemo* memo = msg.memo(
      perf::MemoSlot::kSlotIndex, slots_memo_key(tag, count),
      [&](ByteView bytes, std::vector<std::uint32_t>& index) {
        index.resize(2 * count);
        return index_slots(tag, bytes, index);
      });
  if (memo != nullptr) {
    if (!memo->ok) return std::nullopt;
    return SlotRow(msg.data(), memo->index.data());
  }
  scratch.resize(2 * count);
  if (!index_slots(tag, msg, scratch)) return std::nullopt;
  return SlotRow(msg.data(), scratch.data());
}

}  // namespace treeaa::gradecast

// Wire format of the gradecast sub-rounds.
//
// Exposed as a standalone header (rather than buried in gradecast.cpp) for
// two reasons: protocol-aware Byzantine strategies must be able to craft
// syntactically valid but semantically hostile gradecast traffic, and tests
// must be able to assert on exact encodings.
//
// A gradecast batch runs n parallel instances (every party is the leader of
// its own instance) over three sub-rounds:
//   step 0  LEADER   — the leader's value, an opaque byte string;
//   step 1  ECHO     — per leader, the value received from that leader (⊥ if
//                      none / malformed);
//   step 2  SUPPORT  — per leader, the value this party supports (⊥ if no
//                      value gathered >= n - t echoes).
//
// Every message starts with a step tag byte; a message whose tag does not
// match the current sub-round is discarded (defense in depth — the engine
// already scopes delivery by round).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "common/bytes.h"

namespace treeaa::gradecast {

inline constexpr std::uint8_t kTagLeader = 0x01;
inline constexpr std::uint8_t kTagEcho = 0x02;
inline constexpr std::uint8_t kTagSupport = 0x03;

/// A non-owning view into a received message's payload. Valid only while
/// the payload buffer is alive — i.e. within the on_round_end call that
/// delivered it.
using ByteView = std::span<const std::uint8_t>;

/// A per-leader slot in an echo/support vector: ⊥ or a value.
using Slot = std::optional<Bytes>;

/// A per-leader slot decoded as a view (no copy).
using SlotView = std::optional<ByteView>;

[[nodiscard]] Bytes encode_leader(const Bytes& value);

/// Decodes a LEADER message; nullopt if malformed.
[[nodiscard]] std::optional<Bytes> decode_leader(ByteView msg);

/// Zero-copy variant of decode_leader: the returned view aliases `msg`.
[[nodiscard]] std::optional<ByteView> decode_leader_view(ByteView msg);

[[nodiscard]] Bytes encode_slots(std::uint8_t tag,
                                 const std::vector<Slot>& slots);

/// encode_slots with every slot whose `bottom` bit is set written as ⊥ (the
/// echo's deny mask), without copying the slots. `bottom` has one bit per
/// slot.
[[nodiscard]] Bytes encode_slots(std::uint8_t tag,
                                 const std::vector<Slot>& slots,
                                 const std::vector<bool>& bottom);

/// Decodes an ECHO/SUPPORT message with the given tag into `out.size()`
/// slot views (each aliasing `msg`) and returns true, or returns false if
/// `msg` is malformed or its slot count differs from `out.size()`. On
/// false, `out` holds no meaningful values.
[[nodiscard]] bool decode_slots_view(std::uint8_t tag, ByteView msg,
                                     std::span<SlotView> out);

}  // namespace treeaa::gradecast

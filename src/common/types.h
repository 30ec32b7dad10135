// Shared elementary types used across the treeaa library.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>

namespace treeaa {

/// Index of a party in [0, n). Party identities are public: the network is
/// fully connected with authenticated channels, so a receiver always knows
/// which PartyId a message came from.
using PartyId = std::uint32_t;

/// 1-based global round number. Round 0 means "before the first round".
using Round = std::uint32_t;

/// Index of a vertex inside a LabeledTree, in [0, |V|).
using VertexId = std::uint32_t;

inline constexpr VertexId kNoVertex = std::numeric_limits<VertexId>::max();
inline constexpr PartyId kNoParty = std::numeric_limits<PartyId>::max();

/// The resilience bound n > 3t, written as t <= (n - 1) / 3 so that no t
/// (a hostile one off the wire included) can wrap 3t around. False for
/// n == 0.
[[nodiscard]] constexpr bool fault_bound_holds(std::size_t n, std::size_t t) {
  return n > 0 && t <= (n - 1) / 3;
}

}  // namespace treeaa

// Bracha reliable broadcast (async, t < n/3).
//
// The asynchronous substrate's answer to gradecast: RBC guarantees that
//   * (validity)    an honest broadcaster's payload is eventually delivered
//                   by every honest party;
//   * (consistency) no two honest parties deliver different payloads for
//                   the same (broadcaster, tag) instance;
//   * (totality)    if any honest party delivers, every honest party
//                   eventually delivers.
// Unlike gradecast there are no grades and no detection — which is exactly
// why the async baseline built on it converges with factor 1/2 per
// iteration instead of the synchronous protocol's Fekete-matching rate.
//
// RbcHub multiplexes unboundedly many instances keyed by (broadcaster,
// tag); embed one per process and feed it every incoming RBC message.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <map>
#include <optional>
#include <vector>

#include "async/engine.h"
#include "common/bytes.h"
#include "common/types.h"

namespace treeaa::async {

/// Orders exactly like std::less<Bytes> (bytes compared as unsigned over
/// the common prefix, then the shorter first), spelled as a memcmp: GCC 12
/// reports a false -Wstringop-overread inside vector's operator<=> in
/// Release builds.
struct BytesLess {
  bool operator()(const Bytes& a, const Bytes& b) const {
    const std::size_t common = std::min(a.size(), b.size());
    const int order = common == 0 ? 0 : std::memcmp(a.data(), b.data(), common);
    return order != 0 ? order < 0 : a.size() < b.size();
  }
};

/// Leading byte of every RBC message; hosts dispatch on it.
inline constexpr std::uint8_t kRbcInit = 0x01;
inline constexpr std::uint8_t kRbcEcho = 0x02;
inline constexpr std::uint8_t kRbcReady = 0x03;

[[nodiscard]] inline bool is_rbc_message(const Bytes& payload) {
  return !payload.empty() && payload[0] >= kRbcInit &&
         payload[0] <= kRbcReady;
}

class RbcHub {
 public:
  RbcHub(PartyId self, std::size_t n, std::size_t t);

  /// Caps accepted tags; messages with larger tags are dropped (memory
  /// bound against Byzantine tag spam). Default: no cap.
  void set_max_tag(std::uint64_t max_tag) { max_tag_ = max_tag; }

  /// Starts broadcasting `payload` under `tag` as this party's instance.
  void broadcast(std::uint64_t tag, const Bytes& payload, Mailbox& out);

  struct Delivery {
    PartyId broadcaster;
    std::uint64_t tag;
    Bytes payload;
  };

  /// Feeds one incoming message (must satisfy is_rbc_message); returns the
  /// deliveries it triggered (0 or 1 — kept as a vector for call-site
  /// simplicity).
  std::vector<Delivery> on_message(PartyId from, const Bytes& payload,
                                   Mailbox& out);

 private:
  struct Instance {
    bool echoed = false;
    bool readied = false;
    bool delivered = false;
    std::vector<bool> echo_from;   // who already echoed (one vote each)
    std::vector<bool> ready_from;  // who already sent ready
    std::map<Bytes, std::size_t, BytesLess> echo_count;
    std::map<Bytes, std::size_t, BytesLess> ready_count;
  };

  Instance& instance(PartyId broadcaster, std::uint64_t tag);
  void send_echo(PartyId broadcaster, std::uint64_t tag, const Bytes& m,
                 Instance& inst, Mailbox& out);
  void send_ready(PartyId broadcaster, std::uint64_t tag, const Bytes& m,
                  Instance& inst, Mailbox& out);

  PartyId self_;
  std::size_t n_;
  std::size_t t_;
  std::uint64_t max_tag_ = ~0ull;
  std::map<std::pair<PartyId, std::uint64_t>, Instance> instances_;
};

}  // namespace treeaa::async

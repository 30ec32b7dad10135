// A message in flight on the synchronous network.
//
// Channels are authenticated (paper §2): the `from` field is set by the
// engine, never by the sender, so a Byzantine party cannot forge another
// party's identity. Payloads are opaque bytes; whatever structure they have
// is the receiving protocol's business (and Byzantine payloads may have no
// valid structure at all).
//
// The payload is a refcounted copy-on-write handle (perf::Payload) so a
// broadcast's n envelopes share one byte buffer. The handle converts
// implicitly to `const Bytes&` and to a byte span, so receivers read it
// like a plain buffer; anything that wants to mutate the bytes calls
// payload.mutable_bytes(), which detaches a private copy if the buffer is
// shared. Forwarding an envelope (RoundView::send) moves the handle along.
#pragma once

#include "common/bytes.h"
#include "common/types.h"
#include "perf/arena.h"

namespace treeaa::sim {

struct Envelope {
  PartyId from = kNoParty;
  PartyId to = kNoParty;
  Round round = 0;  // the round in which the message was sent = delivered
  perf::Payload payload;
};

}  // namespace treeaa::sim

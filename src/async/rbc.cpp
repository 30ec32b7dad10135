#include "async/rbc.h"

#include "common/check.h"

namespace treeaa::async {

namespace {

/// Wire: [kind u8][tag varint][broadcaster varint][payload blob]. INIT
/// omits the broadcaster (it is the sender).
Bytes encode(std::uint8_t kind, std::uint64_t tag,
             std::optional<PartyId> broadcaster, const Bytes& payload) {
  ByteWriter w;
  w.u8(kind);
  w.varint(tag);
  if (broadcaster.has_value()) w.varint(*broadcaster);
  w.blob(payload);
  return std::move(w).take();
}

struct Decoded {
  std::uint8_t kind;
  std::uint64_t tag;
  PartyId broadcaster;  // for INIT: filled with the sender by the caller
  Bytes payload;
};

std::optional<Decoded> decode(PartyId from, const Bytes& msg,
                              std::size_t n) {
  try {
    ByteReader r(msg);
    Decoded d;
    d.kind = r.u8();
    if (d.kind < kRbcInit || d.kind > kRbcReady) return std::nullopt;
    d.tag = r.varint();
    if (d.kind == kRbcInit) {
      d.broadcaster = from;
    } else {
      const std::uint64_t b = r.varint();
      if (b >= n) return std::nullopt;
      d.broadcaster = static_cast<PartyId>(b);
    }
    d.payload = r.blob();
    r.expect_done();
    return d;
  } catch (const DecodeError&) {
    return std::nullopt;
  }
}

}  // namespace

RbcHub::RbcHub(PartyId self, std::size_t n, std::size_t t)
    : self_(self), n_(n), t_(t) {
  TREEAA_REQUIRE(self < n);
  TREEAA_REQUIRE_MSG(fault_bound_holds(n, t), "RBC requires t < n/3");
}

RbcHub::Instance& RbcHub::instance(PartyId broadcaster, std::uint64_t tag) {
  auto& inst = instances_[{broadcaster, tag}];
  if (inst.echo_from.empty()) {
    inst.echo_from.assign(n_, false);
    inst.ready_from.assign(n_, false);
  }
  return inst;
}

void RbcHub::send_echo(PartyId broadcaster, std::uint64_t tag, const Bytes& m,
                       Instance& inst, Mailbox& out) {
  if (inst.echoed) return;
  inst.echoed = true;
  out.broadcast(encode(kRbcEcho, tag, broadcaster, m));
}

void RbcHub::send_ready(PartyId broadcaster, std::uint64_t tag,
                        const Bytes& m, Instance& inst, Mailbox& out) {
  if (inst.readied) return;
  inst.readied = true;
  out.broadcast(encode(kRbcReady, tag, broadcaster, m));
}

void RbcHub::broadcast(std::uint64_t tag, const Bytes& payload,
                       Mailbox& out) {
  TREEAA_REQUIRE(tag <= max_tag_);
  out.broadcast(encode(kRbcInit, tag, std::nullopt, payload));
}

std::vector<RbcHub::Delivery> RbcHub::on_message(PartyId from,
                                                 const Bytes& payload,
                                                 Mailbox& out) {
  const auto d = decode(from, payload, n_);
  if (!d.has_value() || d->tag > max_tag_) return {};
  Instance& inst = instance(d->broadcaster, d->tag);

  switch (d->kind) {
    case kRbcInit:
      // First INIT from the broadcaster triggers our echo; duplicates and
      // conflicting INITs are ignored (echoed_ is one-shot).
      send_echo(d->broadcaster, d->tag, d->payload, inst, out);
      break;
    case kRbcEcho: {
      if (inst.echo_from[from]) break;  // one echo vote per party
      inst.echo_from[from] = true;
      const std::size_t count = ++inst.echo_count[d->payload];
      // Bracha's echo threshold: ceil((n + t + 1) / 2).
      if (count >= (n_ + t_ + 2) / 2) {
        send_ready(d->broadcaster, d->tag, d->payload, inst, out);
      }
      break;
    }
    case kRbcReady: {
      if (inst.ready_from[from]) break;
      inst.ready_from[from] = true;
      const std::size_t count = ++inst.ready_count[d->payload];
      if (count >= t_ + 1) {
        // Ready amplification: join the ready wave (totality).
        send_ready(d->broadcaster, d->tag, d->payload, inst, out);
      }
      if (count >= 2 * t_ + 1 && !inst.delivered) {
        inst.delivered = true;
        return {Delivery{d->broadcaster, d->tag, d->payload}};
      }
      break;
    }
    default:
      break;
  }
  return {};
}

}  // namespace treeaa::async

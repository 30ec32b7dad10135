// Allocation-light buffers for the simulator's message hot path.
//
// Every simulated message owns a heap-allocated payload, and the engine
// once delivered each round into a fresh vector-of-vectors of inboxes — at
// n^2 messages per round that allocation traffic dominated a full run (the
// realaa_wide workload of e2e_bench/ is that case). The engine keeps
// capacity alive across rounds:
//
//   * Payload is a refcounted, copy-on-write handle around Bytes. A
//     broadcast interns its payload once and shares the handle across all
//     n envelopes (O(n) bytes per broadcast instead of O(n^2)); anything
//     that needs to mutate or take ownership of the bytes (link-fault
//     corruption, adversarial replays) detaches its own copy first, so
//     sharing is never observable by protocols;
//   * PayloadPool recycles payload control blocks and their byte capacity —
//     after a round's inboxes have been consumed the engine releases every
//     payload back into a pool, and Mailer draws fresh payloads from it;
//   * the per-round inboxes are slices of one flat, counting-sorted
//     delivery array (sim/engine.cpp) instead of n separately grown
//     vectors.
//
// The reference count is atomic because the parallel engine
// (perf/parallel.h) copies and destroys handles to the same shared payload
// from several delivery-phase workers at once. Pools themselves are NOT
// thread-safe: the engine gives each worker lane its own PayloadPool and
// only touches them from one thread at a time.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace treeaa::perf {

class PayloadPool;

/// Control block of a shared payload: the byte buffer plus its reference
/// count. Pool-recycled together with the buffer's capacity.
struct PayloadRep {
  std::atomic<std::uint32_t> refs{1};
  Bytes bytes;
};

/// A refcounted, copy-on-write handle around a message payload. Copying a
/// Payload shares the underlying bytes (a reference-count bump, no byte
/// copy); reads are always safe on shared handles, and every mutating entry
/// point (mutable_bytes) detaches an unshared copy first.
class Payload {
 public:
  Payload() = default;

  /// Implicit on purpose: wraps owned bytes in a fresh unshared handle, so
  /// Envelope aggregate-initialisation from Bytes keeps working unchanged.
  Payload(Bytes bytes) : rep_(new PayloadRep) {  // NOLINT(google-explicit-constructor)
    rep_->bytes = std::move(bytes);
  }

  Payload(const Payload& other) : rep_(other.rep_) {
    if (rep_ != nullptr) rep_->refs.fetch_add(1, std::memory_order_relaxed);
  }
  Payload(Payload&& other) noexcept : rep_(other.rep_) { other.rep_ = nullptr; }
  Payload& operator=(const Payload& other) {
    Payload copy(other);
    std::swap(rep_, copy.rep_);
    return *this;
  }
  Payload& operator=(Payload&& other) noexcept {
    std::swap(rep_, other.rep_);
    return *this;
  }
  ~Payload() { release(nullptr); }

  /// Drops this handle's reference. The last reference frees the control
  /// block — into `pool` when given (recycling node + byte capacity for the
  /// next broadcast), else to the heap. The handle is empty afterwards.
  void release(PayloadPool* pool);

  [[nodiscard]] const Bytes& bytes() const {
    static const Bytes kEmpty;
    return rep_ != nullptr ? rep_->bytes : kEmpty;
  }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator const Bytes&() const { return bytes(); }
  // NOLINTNEXTLINE(google-explicit-constructor)
  operator std::span<const std::uint8_t>() const {
    const Bytes& b = bytes();
    return {b.data(), b.size()};
  }

  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  [[nodiscard]] bool empty() const { return bytes().empty(); }
  [[nodiscard]] const std::uint8_t* data() const { return bytes().data(); }
  [[nodiscard]] Bytes::const_iterator begin() const { return bytes().begin(); }
  [[nodiscard]] Bytes::const_iterator end() const { return bytes().end(); }
  [[nodiscard]] std::uint8_t operator[](std::size_t i) const {
    return bytes()[i];
  }

  friend bool operator==(const Payload& a, const Payload& b) {
    return a.bytes() == b.bytes();
  }
  friend bool operator==(const Payload& a, const Bytes& b) {
    return a.bytes() == b;
  }

  /// Handles (including this one) currently sharing the bytes; 0 when empty.
  [[nodiscard]] std::uint32_t use_count() const {
    return rep_ != nullptr ? rep_->refs.load(std::memory_order_relaxed) : 0;
  }
  [[nodiscard]] bool shared() const { return use_count() > 1; }

  /// Copy-on-write mutable access: a shared handle first detaches its own
  /// copy of the bytes, so writes are never visible through other handles.
  [[nodiscard]] Bytes& mutable_bytes() {
    if (rep_ == nullptr) {
      rep_ = new PayloadRep;
    } else if (shared()) {
      auto* detached = new PayloadRep;
      detached->bytes = rep_->bytes;
      release(nullptr);
      rep_ = detached;
    }
    return rep_->bytes;
  }

 private:
  friend class PayloadPool;
  explicit Payload(PayloadRep* rep) : rep_(rep) {}

  PayloadRep* rep_ = nullptr;
};

/// Recycles payload control blocks (node + byte capacity). Not thread-safe:
/// each engine worker lane owns one.
class PayloadPool {
 public:
  PayloadPool() = default;
  PayloadPool(const PayloadPool&) = delete;
  PayloadPool& operator=(const PayloadPool&) = delete;
  PayloadPool(PayloadPool&&) = default;
  PayloadPool& operator=(PayloadPool&&) = default;
  ~PayloadPool() {
    for (PayloadRep* rep : free_) delete rep;
  }

  /// A fresh unshared payload whose bytes copy `src` into pooled capacity.
  [[nodiscard]] Payload copy_of(std::span<const std::uint8_t> src) {
    PayloadRep* rep = take_rep();
    rep->bytes.assign(src.begin(), src.end());
    return Payload(rep);
  }

  /// A fresh unshared payload adopting `bytes` (reuses a pooled node).
  [[nodiscard]] Payload adopt(Bytes bytes) {
    PayloadRep* rep = take_rep();
    rep->bytes = std::move(bytes);
    return Payload(rep);
  }

  /// Takes back a dead control block (refcount already zero).
  void put(PayloadRep* rep) { free_.push_back(rep); }

  [[nodiscard]] std::size_t pooled() const { return free_.size(); }

 private:
  [[nodiscard]] PayloadRep* take_rep() {
    if (free_.empty()) return new PayloadRep;
    PayloadRep* rep = free_.back();
    free_.pop_back();
    rep->refs.store(1, std::memory_order_relaxed);
    rep->bytes.clear();
    return rep;
  }

  std::vector<PayloadRep*> free_;
};

inline void Payload::release(PayloadPool* pool) {
  if (rep_ == nullptr) return;
  if (rep_->refs.fetch_sub(1, std::memory_order_acq_rel) == 1) {
    if (pool != nullptr) {
      pool->put(rep_);
    } else {
      delete rep_;
    }
  }
  rep_ = nullptr;
}

}  // namespace treeaa::perf

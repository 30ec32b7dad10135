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
//
// A shared payload also carries parse memos (PayloadMemo), so the n
// receivers of a broadcast parse its bytes once instead of n times
// (Payload::memo). A rep has one memo per MemoSlot: the gradecast slot
// index of its own bytes (kSlotIndex), and the gradecast step tally of an
// inbox whose first counted message it is (kInboxTally). The second one
// describes other reps too, so it names them by content stamp:
//
//   * every rep carries a stamp, unique process-wide, renewed wherever the
//     memos reset (a new rep, a detached copy, PayloadPool::take_rep and an
//     unshared mutable_bytes()). So two live handles with the same stamp
//     name the same rep holding the same bytes. A rep pointer alone would
//     not do: a PayloadPool recycles a rep, new bytes and all, at the same
//     address.
//
// A memo is a pure function of the bytes under its key (and, for the tally,
// of the bytes of the reps it names), and it keeps these invariants:
//
//   * only a shared handle fills a memo: the first reader claims it with
//     one CAS (empty -> filling), parses, and publishes with a release
//     store (filling -> ready); every later reader, on any thread, takes it
//     with an acquire load. A reader that finds it filling, or ready under
//     another key, parses locally — nobody ever waits;
//   * the bytes stay immutable while the memo is ready: a shared handle's
//     mutable_bytes() detaches a fresh rep (whose memos start empty), and
//     an unshared handle's mutable_bytes() resets them, since the bytes may
//     change;
//   * PayloadPool::take_rep resets the memos of a recycled rep.
//
// A memo is trusted library state, read by every receiver of the payload
// in place of its own parse. Only the gradecast decoder and tally
// (src/gradecast/) fill one: a Byzantine strategy that filled a memo with a
// parse of its own would forge honest parties' decodes and tallies without
// sending a single message. The ctest payload_memo_fills_only_in_gradecast
// keeps every other file under src/ from calling memo().
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "common/bytes.h"

namespace treeaa::perf {

class PayloadPool;

/// One parse of a shared payload's bytes (see the header comment): what it
/// was parsed as (`key`), whether the bytes were accepted, and the parser's
/// compact index into them.
struct PayloadMemo {
  static constexpr std::uint8_t kEmpty = 0;
  static constexpr std::uint8_t kFilling = 1;
  static constexpr std::uint8_t kReady = 2;

  std::atomic<std::uint8_t> state{kEmpty};
  std::uint64_t key = 0;
  bool ok = false;
  std::vector<std::uint32_t> index;
};

/// The memos of a rep, one per kind of parse, so neither evicts the other.
enum class MemoSlot : std::uint8_t {
  kSlotIndex,   // the gradecast slot index of this rep's bytes
  kInboxTally,  // a gradecast step tally of an inbox led by this rep
};
inline constexpr std::size_t kMemoSlots = 2;

namespace detail {
/// The source of content stamps; 0 is never handed out.
inline std::atomic<std::uint64_t> next_stamp{1};
inline std::uint64_t new_stamp() {
  return next_stamp.fetch_add(1, std::memory_order_relaxed);
}
}  // namespace detail

/// Control block of a shared payload: the byte buffer, its reference count,
/// its content stamp and its parse memos. Pool-recycled together with the
/// buffer's and the memos' capacity.
struct PayloadRep {
  std::atomic<std::uint32_t> refs{1};
  std::uint64_t stamp = detail::new_stamp();
  Bytes bytes;
  PayloadMemo memos[kMemoSlots];

  /// The bytes may change (or have): a new stamp, and no memo.
  void renew() {
    stamp = detail::new_stamp();
    for (PayloadMemo& m : memos) {
      m.state.store(PayloadMemo::kEmpty, std::memory_order_relaxed);
    }
  }
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

  /// The content stamp of the bytes (see the header comment); 0 when empty.
  [[nodiscard]] std::uint64_t stamp() const {
    return rep_ != nullptr ? rep_->stamp : 0;
  }

  /// The parse in memo `slot` under `key`, memoized on the shared control
  /// block, or nullptr when the caller must parse locally: the handle is
  /// empty or unshared, another reader is still filling the memo, or it
  /// holds another key. The first reader of a shared payload fills it by
  /// calling `parse(bytes, index)` on an empty index; its bool result is the
  /// memo's `ok`. `parse` must be a pure function of the bytes for a given
  /// key (a kInboxTally parse: of the bytes of the reps its index names by
  /// stamp, this rep first).
  template <typename Parse>
  [[nodiscard]] const PayloadMemo* memo(MemoSlot slot, std::uint64_t key,
                                        Parse&& parse) const {
    if (rep_ == nullptr) return nullptr;
    PayloadMemo& m = rep_->memos[static_cast<std::size_t>(slot)];
    std::uint8_t state = m.state.load(std::memory_order_acquire);
    if (state == PayloadMemo::kEmpty && shared() &&
        m.state.compare_exchange_strong(state, PayloadMemo::kFilling,
                                        std::memory_order_acquire)) {
      m.key = key;
      m.index.clear();
      m.ok = parse(std::span<const std::uint8_t>(rep_->bytes), m.index);
      m.state.store(PayloadMemo::kReady, std::memory_order_release);
      return &m;
    }
    return state == PayloadMemo::kReady && m.key == key ? &m : nullptr;
  }

  /// Copy-on-write mutable access: a shared handle first detaches its own
  /// copy of the bytes, so writes are never visible through other handles;
  /// an unshared one renews its stamp and drops its memos, since the bytes
  /// may change.
  [[nodiscard]] Bytes& mutable_bytes() {
    if (rep_ == nullptr) {
      rep_ = new PayloadRep;
      return rep_->bytes;
    }
    // Acquire pairs with release(): the reads (and memo fills) of every
    // handle already dropped happen before the writes below.
    if (rep_->refs.load(std::memory_order_acquire) > 1) {
      auto* detached = new PayloadRep;
      detached->bytes = rep_->bytes;
      release(nullptr);
      rep_ = detached;
    } else {
      rep_->renew();
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
    rep->renew();
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

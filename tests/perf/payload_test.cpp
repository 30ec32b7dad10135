// Payload / PayloadPool: refcounted sharing, copy-on-write detachment,
// control-block recycling, the Mailer broadcast interning that motivates
// the whole design (one byte buffer shared by all n envelopes of a
// broadcast), and the parse memo that lets those n receivers parse the
// buffer once.
#include "perf/arena.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "perf/parallel.h"
#include "sim/envelope.h"
#include "sim/process.h"

namespace treeaa::perf {
namespace {

TEST(Payload, FreshHandleOwnsItsBytes) {
  const Payload p(Bytes{1, 2, 3});
  EXPECT_EQ(p.use_count(), 1u);
  EXPECT_FALSE(p.shared());
  EXPECT_EQ(p.bytes(), (Bytes{1, 2, 3}));
  EXPECT_EQ(p.size(), 3u);
  EXPECT_EQ(p[1], 2);

  const Payload empty;
  EXPECT_EQ(empty.use_count(), 0u);
  EXPECT_TRUE(empty.empty());
}

TEST(Payload, CopySharesWithoutCopyingBytes) {
  const Payload a(Bytes{7, 8});
  const Payload b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(a.use_count(), 2u);
  EXPECT_EQ(b.use_count(), 2u);
  EXPECT_TRUE(a.shared());
  EXPECT_EQ(a.data(), b.data()) << "copies must alias the same buffer";
  EXPECT_EQ(a, b);
}

TEST(Payload, MutableBytesDetachesSharedHandles) {
  Payload a(Bytes{1, 1, 1});
  Payload b = a;
  b.mutable_bytes()[0] = 9;
  // The write went to b's own copy; a is untouched and both are unshared.
  EXPECT_EQ(a.bytes(), (Bytes{1, 1, 1}));
  EXPECT_EQ(b.bytes(), (Bytes{9, 1, 1}));
  EXPECT_EQ(a.use_count(), 1u);
  EXPECT_EQ(b.use_count(), 1u);

  // An already-unique handle mutates in place (no detach).
  const std::uint8_t* before = b.data();
  b.mutable_bytes()[1] = 9;
  EXPECT_EQ(b.data(), before);
}

TEST(PayloadPool, RecyclesControlBlocks) {
  PayloadPool pool;
  const Bytes src{1, 2, 3, 4};
  Payload p = pool.copy_of(src);
  EXPECT_EQ(p.bytes(), src);
  EXPECT_EQ(pool.pooled(), 0u);

  p.release(&pool);
  EXPECT_EQ(p.use_count(), 0u);
  EXPECT_EQ(pool.pooled(), 1u);

  // The next payload reuses the pooled node instead of allocating.
  Payload q = pool.adopt(Bytes{9});
  EXPECT_EQ(pool.pooled(), 0u);
  EXPECT_EQ(q.bytes(), Bytes{9});
  EXPECT_EQ(q.use_count(), 1u);
  q.release(&pool);
  EXPECT_EQ(pool.pooled(), 1u);
}

TEST(PayloadPool, SharedReleaseFreesOnlyTheLastReference) {
  PayloadPool pool;
  Payload a = pool.copy_of(Bytes{2, 2});
  Payload b = a;
  a.release(&pool);
  EXPECT_EQ(pool.pooled(), 0u) << "b still holds the rep";
  EXPECT_EQ(b.bytes(), (Bytes{2, 2}));
  b.release(&pool);
  EXPECT_EQ(pool.pooled(), 1u);
}

// The tentpole property: a Mailer broadcast interns its payload once and
// every envelope shares it — n handles, one buffer.
TEST(BroadcastInterning, AllEnvelopesShareOnePayload) {
  PayloadPool pool;
  std::vector<sim::Envelope> sink;
  constexpr std::size_t kParties = 6;
  sim::Mailer mailer(0, kParties, sink, 3, &pool);
  mailer.broadcast(Bytes{42, 43, 44});

  ASSERT_EQ(sink.size(), kParties);
  const std::uint8_t* buffer = sink[0].payload.data();
  for (const sim::Envelope& e : sink) {
    EXPECT_EQ(e.payload.use_count(), kParties);
    EXPECT_EQ(e.payload.data(), buffer) << "broadcast must not copy bytes";
    EXPECT_EQ(e.payload, (Bytes{42, 43, 44}));
  }

  // Consuming the envelopes returns exactly one control block to the pool.
  for (sim::Envelope& e : sink) e.payload.release(&pool);
  EXPECT_EQ(pool.pooled(), 1u);
}

// A corrupting consumer (the net fault layer, adversarial replay) detaches
// before writing, so the mutation never leaks to the other recipients.
TEST(BroadcastInterning, CorruptionDetachesInsteadOfAliasing) {
  PayloadPool pool;
  std::vector<sim::Envelope> sink;
  sim::Mailer mailer(1, 4, sink, 0, &pool);
  mailer.broadcast(Bytes{10, 20});
  ASSERT_EQ(sink.size(), 4u);

  sink[2].payload.mutable_bytes()[0] ^= 0xFF;  // corrupt-link bit flip
  EXPECT_EQ(sink[2].payload, (Bytes{0xF5, 20}));
  for (const std::size_t i : {0u, 1u, 3u}) {
    EXPECT_EQ(sink[i].payload, (Bytes{10, 20}))
        << "recipient " << i << " saw the corruption through sharing";
  }
}

// --- Parse memo ----------------------------------------------------------------

/// A stand-in parser: index entry i is byte i plus one, and the bytes are
/// accepted iff the first one is odd. Counts its calls.
struct CountingParse {
  std::atomic<int>* calls;
  bool operator()(std::span<const std::uint8_t> bytes,
                  std::vector<std::uint32_t>& index) const {
    calls->fetch_add(1, std::memory_order_relaxed);
    for (const std::uint8_t b : bytes) index.push_back(b + 1u);
    return !bytes.empty() && (bytes[0] & 1u) != 0;
  }
};

TEST(Payload, MemoParsesOnceAcrossHandles) {
  std::atomic<int> calls{0};
  const Payload first(Bytes{3, 5, 7});
  const std::vector<Payload> handles(5, first);
  const PayloadMemo* memo = first.memo(42, CountingParse{&calls});
  ASSERT_NE(memo, nullptr);
  EXPECT_TRUE(memo->ok);
  EXPECT_EQ(memo->key, 42u);
  EXPECT_EQ(memo->index, (std::vector<std::uint32_t>{4, 6, 8}));
  for (const Payload& h : handles) {
    EXPECT_EQ(h.memo(42, CountingParse{&calls}), memo);
  }
  EXPECT_EQ(calls.load(), 1) << "every later reader must take the memo";

  // A rejected parse is memoized too: its readers skip the bytes at once.
  const Payload bad(Bytes{2});
  const Payload bad_copy = bad;
  const PayloadMemo* rejected = bad.memo(42, CountingParse{&calls});
  ASSERT_NE(rejected, nullptr);
  EXPECT_FALSE(rejected->ok);
  EXPECT_EQ(bad_copy.memo(42, CountingParse{&calls}), rejected);
  EXPECT_EQ(calls.load(), 2);
}

TEST(Payload, MemoNeverFilledByAnUnsharedHandle) {
  std::atomic<int> calls{0};
  const Payload alone(Bytes{1, 2});
  EXPECT_EQ(alone.memo(1, CountingParse{&calls}), nullptr);
  EXPECT_EQ(alone.memo(1, CountingParse{&calls}), nullptr);
  EXPECT_EQ(calls.load(), 0) << "an unshared reader parses locally";
  EXPECT_EQ(Payload().memo(1, CountingParse{&calls}), nullptr);

  // Once shared, the first reader fills it.
  const Payload copy = alone;  // NOLINT(performance-unnecessary-copy-initialization)
  ASSERT_NE(copy.memo(1, CountingParse{&calls}), nullptr);
  EXPECT_EQ(calls.load(), 1);
}

TEST(Payload, MemoDroppedWhenUnsharedBytesMayChange) {
  std::atomic<int> calls{0};
  Payload a(Bytes{1, 1});
  Payload b = a;
  ASSERT_NE(a.memo(7, CountingParse{&calls}), nullptr);

  // A detached copy carries no memo: once shared again, it parses afresh.
  b.mutable_bytes()[0] = 5;
  EXPECT_EQ(b.memo(7, CountingParse{&calls}), nullptr);
  const Payload b2 = b;  // NOLINT(performance-unnecessary-copy-initialization)
  const PayloadMemo* detached = b2.memo(7, CountingParse{&calls});
  ASSERT_NE(detached, nullptr);
  EXPECT_EQ(detached->index, (std::vector<std::uint32_t>{6, 2}));
  EXPECT_EQ(calls.load(), 2);

  // `a` is unshared now; its memo still describes its bytes until a write
  // access, which drops it.
  ASSERT_FALSE(a.shared());
  ASSERT_NE(a.memo(7, CountingParse{&calls}), nullptr);
  a.mutable_bytes()[1] = 9;
  EXPECT_EQ(a.memo(7, CountingParse{&calls}), nullptr);
  const Payload a2 = a;  // NOLINT(performance-unnecessary-copy-initialization)
  const PayloadMemo* fresh = a2.memo(7, CountingParse{&calls});
  ASSERT_NE(fresh, nullptr);
  EXPECT_EQ(fresh->index, (std::vector<std::uint32_t>{2, 10}));
  EXPECT_EQ(calls.load(), 3);
}

TEST(Payload, MemoStartsEmptyOnARecycledPoolRep) {
  std::atomic<int> calls{0};
  PayloadPool pool;
  Payload a = pool.copy_of(Bytes{1});
  Payload b = a;
  ASSERT_NE(a.memo(3, CountingParse{&calls}), nullptr);
  a.release(&pool);
  b.release(&pool);
  ASSERT_EQ(pool.pooled(), 1u);

  Payload c = pool.copy_of(Bytes{3, 4});
  ASSERT_EQ(pool.pooled(), 0u) << "the memoized rep was reused";
  const Payload d = c;  // NOLINT(performance-unnecessary-copy-initialization)
  const PayloadMemo* memo = d.memo(3, CountingParse{&calls});
  ASSERT_NE(memo, nullptr);
  EXPECT_EQ(memo->index, (std::vector<std::uint32_t>{4, 5}));
  EXPECT_EQ(calls.load(), 2);
  c.release(&pool);
}

TEST(Payload, MemoUnderAnotherKeyParsesLocally) {
  std::atomic<int> calls{0};
  const Payload a(Bytes{1});
  const Payload b = a;  // NOLINT(performance-unnecessary-copy-initialization)
  ASSERT_NE(a.memo(2, CountingParse{&calls}), nullptr);
  EXPECT_EQ(b.memo(3, CountingParse{&calls}), nullptr);
  EXPECT_EQ(calls.load(), 1) << "a foreign key must not refill the memo";
  EXPECT_NE(b.memo(2, CountingParse{&calls}), nullptr);
}

// Readers on four real threads race for one shared rep: exactly one fills
// the memo, a reader that finds it still filling parses locally, and every
// reader sees the same index. Run under TSan by CI's race-audit job.
TEST(Payload, MemoRaceAcrossWorkersYieldsOneIndex) {
  WorkerPool pool(4, 4);
  constexpr std::size_t kReaders = 64;
  for (int trial = 0; trial < 50; ++trial) {
    Bytes bytes(200);
    for (std::size_t i = 0; i < bytes.size(); ++i) {
      bytes[i] = static_cast<std::uint8_t>(i * 7 +
                                           static_cast<std::size_t>(trial));
    }
    const Payload shared(std::move(bytes));
    const std::vector<Payload> handles(kReaders, shared);
    std::atomic<int> memo_calls{0};
    std::atomic<int> local_calls{0};
    std::vector<std::vector<std::uint32_t>> seen(kReaders);
    pool.run(kReaders, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const PayloadMemo* memo =
            handles[i].memo(9, CountingParse{&memo_calls});
        if (memo != nullptr) {
          seen[i] = memo->index;
        } else {
          (void)CountingParse{&local_calls}(handles[i].bytes(), seen[i]);
        }
      }
    });
    ASSERT_EQ(memo_calls.load(), 1) << "trial " << trial;
    for (std::size_t i = 1; i < kReaders; ++i) {
      ASSERT_EQ(seen[i], seen[0]) << "trial " << trial << " reader " << i;
    }
    EXPECT_NE(shared.memo(9, CountingParse{&memo_calls}), nullptr);
  }
}

}  // namespace
}  // namespace treeaa::perf

// Payload / PayloadPool: refcounted sharing, copy-on-write detachment,
// control-block recycling, and the Mailer broadcast interning that
// motivates the whole design (one byte buffer shared by all n envelopes of
// a broadcast).
#include "perf/arena.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

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

}  // namespace
}  // namespace treeaa::perf

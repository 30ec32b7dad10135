// WorkerPool: static chunking, exact index coverage on every
// (count, lanes, workers) shape, deterministic exception choice, the lease
// cache, the lane-to-thread mapping, the lane-order merge of per-lane
// staging that the engine's send phase relies on, a dispatch stress loop
// that exercises the sleep/wake handshake with real threads (the TSAN
// job's main subject), and for_each's dynamic claims, the sweep's and the
// hunt's fan-out.
#include "perf/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace treeaa::perf {
namespace {

TEST(WorkerPool, ResolveLanesAndChunkSize) {
  EXPECT_EQ(WorkerPool::resolve_lanes(1), 1u);
  EXPECT_EQ(WorkerPool::resolve_lanes(7), 7u);
  EXPECT_GE(WorkerPool::resolve_lanes(0), 1u);  // hardware concurrency

  EXPECT_EQ(WorkerPool::chunk_size(10, 2), 5u);
  EXPECT_EQ(WorkerPool::chunk_size(10, 3), 4u);
  EXPECT_EQ(WorkerPool::chunk_size(1, 8), 1u);
  EXPECT_EQ(WorkerPool::chunk_size(0, 4), 0u);
}

TEST(WorkerPool, WorkersNeverExceedLanes) {
  WorkerPool pool(4, 16);
  EXPECT_EQ(pool.lanes(), 4u);
  EXPECT_LE(pool.workers(), 4u);
}

// Every index in [0, count) is visited exactly once, by the lane its
// static chunk dictates — for single-worker (inline) and multi-worker
// execution alike. This is the partition the engine's byte-identical
// merge order is built on.
TEST(WorkerPool, CoversEveryIndexExactlyOnceWithStaticChunks) {
  for (const std::size_t lanes : {2u, 3u, 8u}) {
    for (const std::size_t workers : {1u, 2u, 3u}) {
      WorkerPool pool(lanes, workers);
      for (const std::size_t count : {0u, 1u, 5u, 8u, 17u}) {
        const std::size_t chunk = WorkerPool::chunk_size(count, lanes);
        std::vector<std::vector<std::size_t>> per_lane(lanes);
        pool.run(count, [&](std::size_t lane, std::size_t begin,
                            std::size_t end) {
          for (std::size_t i = begin; i < end; ++i)
            per_lane[lane].push_back(i);
        });
        std::vector<int> seen(count, 0);
        for (std::size_t lane = 0; lane < lanes; ++lane) {
          for (const std::size_t i : per_lane[lane]) {
            ASSERT_LT(i, count);
            ++seen[i];
            EXPECT_EQ(i / chunk, lane)
                << "index " << i << " ran on the wrong lane";
          }
        }
        for (std::size_t i = 0; i < count; ++i) {
          EXPECT_EQ(seen[i], 1) << "index " << i << " count=" << count
                                << " lanes=" << lanes
                                << " workers=" << workers;
        }
      }
    }
  }
}

TEST(WorkerPool, RethrowsLowestLaneException) {
  WorkerPool pool(4, 2);
  try {
    pool.run(4, [](std::size_t lane, std::size_t, std::size_t) {
      if (lane == 1) throw std::runtime_error("lane one");
      if (lane == 3) throw std::runtime_error("lane three");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "lane one");
  }
  // The pool survives a throwing dispatch.
  std::atomic<int> hits{0};
  pool.run(4, [&](std::size_t, std::size_t begin, std::size_t end) {
    hits.fetch_add(static_cast<int>(end - begin));
  });
  EXPECT_EQ(hits.load(), 4);
}

TEST(WorkerPool, LeaseIsEmptyForSerialLaneCounts) {
  const WorkerPool::Lease lease = WorkerPool::lease(1);
  EXPECT_EQ(lease.get(), nullptr);
  EXPECT_FALSE(lease);
}

TEST(WorkerPool, LeaseCacheReusesPools) {
  WorkerPool* first = nullptr;
  {
    const WorkerPool::Lease lease = WorkerPool::lease(3);
    ASSERT_NE(lease.get(), nullptr);
    EXPECT_EQ(lease.get()->lanes(), 3u);
    first = lease.get();
  }
  const WorkerPool::Lease again = WorkerPool::lease(3);
  EXPECT_EQ(again.get(), first) << "returned pool should be recycled";
}

TEST(WorkerPool, LeaseCacheNeverSharesAPoolBetweenLiveLeases) {
  const WorkerPool::Lease a = WorkerPool::lease(6);
  const WorkerPool::Lease b = WorkerPool::lease(6);
  ASSERT_NE(a.get(), nullptr);
  ASSERT_NE(b.get(), nullptr);
  EXPECT_NE(a.get(), b.get());
  EXPECT_EQ(a.get()->lanes(), 6u);
  EXPECT_EQ(b.get()->lanes(), 6u);
  // A different lane count never recycles a pool of another shape.
  WorkerPool* seven = nullptr;
  {
    const WorkerPool::Lease c = WorkerPool::lease(7);
    ASSERT_NE(c.get(), nullptr);
    EXPECT_EQ(c.get()->lanes(), 7u);
    seven = c.get();
  }
  const WorkerPool::Lease d = WorkerPool::lease(6);
  ASSERT_NE(d.get(), nullptr);
  EXPECT_NE(d.get(), seven);
  EXPECT_NE(d.get(), a.get());
  EXPECT_NE(d.get(), b.get());
}

// The lane-to-thread mapping: worker w runs the lanes congruent to w mod
// workers(), and the dispatching thread is worker 0.
TEST(WorkerPool, LanesCongruentModWorkersShareAThreadAndLaneZeroIsTheCaller) {
  WorkerPool pool(6, 3);
  ASSERT_EQ(pool.workers(), 3u);
  std::vector<std::thread::id> ran_on(6);
  pool.run(6, [&](std::size_t lane, std::size_t, std::size_t) {
    ran_on[lane] = std::this_thread::get_id();
  });
  EXPECT_EQ(ran_on[0], std::this_thread::get_id());
  EXPECT_EQ(ran_on[3], std::this_thread::get_id());
  EXPECT_EQ(ran_on[1], ran_on[4]);
  EXPECT_EQ(ran_on[2], ran_on[5]);
  EXPECT_NE(ran_on[1], ran_on[0]);
  EXPECT_NE(ran_on[2], ran_on[0]);
  EXPECT_NE(ran_on[1], ran_on[2]);

  // A single-worker pool runs every lane on the caller.
  WorkerPool serial(4, 1);
  std::vector<std::thread::id> serial_on(4);
  serial.run(4, [&](std::size_t lane, std::size_t, std::size_t) {
    serial_on[lane] = std::this_thread::get_id();
  });
  for (const std::thread::id id : serial_on) {
    EXPECT_EQ(id, std::this_thread::get_id());
  }
}

TEST(WorkerPool, ZeroCountRunIsANoOp) {
  WorkerPool pool(4, 2);
  const WorkerPool::DispatchStats before = pool.stats();
  bool called = false;
  pool.run(0, [&](std::size_t, std::size_t, std::size_t) { called = true; });
  EXPECT_FALSE(called);
  const WorkerPool::DispatchStats after = pool.stats();
  EXPECT_EQ(after.dispatches, before.dispatches);
  EXPECT_EQ(after.lane_items, before.lane_items);
}

// When count does not fill every lane, the lanes past the last chunk get
// an empty range and are never invoked, and lane_items records exactly the
// static chunk each lane processed.
TEST(WorkerPool, LanesPastTheLastChunkAreNeverInvoked) {
  WorkerPool pool(8, 3);
  struct Case {
    std::size_t count;
    std::vector<std::uint64_t> items;  // expected per-lane item counts
  };
  const Case cases[] = {
      {3, {1, 1, 1, 0, 0, 0, 0, 0}},
      {10, {2, 2, 2, 2, 2, 0, 0, 0}},
      {17, {3, 3, 3, 3, 3, 2, 0, 0}},
  };
  for (const Case& c : cases) {
    const WorkerPool::DispatchStats before = pool.stats();
    std::vector<int> invoked(8, 0);
    pool.run(c.count, [&](std::size_t lane, std::size_t begin,
                          std::size_t end) {
      EXPECT_LT(begin, end) << "empty lane " << lane << " was invoked";
      ++invoked[lane];
    });
    const WorkerPool::DispatchStats after = pool.stats();
    EXPECT_EQ(after.dispatches, before.dispatches + 1);
    for (std::size_t lane = 0; lane < 8; ++lane) {
      EXPECT_EQ(invoked[lane], c.items[lane] > 0 ? 1 : 0)
          << "count=" << c.count << " lane=" << lane;
      EXPECT_EQ(after.lane_items[lane] - before.lane_items[lane],
                c.items[lane])
          << "count=" << c.count << " lane=" << lane;
    }
  }
}

// The engine's lane handoff in miniature: every lane stages its outputs in
// its own vector, and appending the vectors in lane order after run()
// returns reproduces the serial iteration order exactly — on every pool
// shape, across many reuses of the same staging vectors.
TEST(WorkerPool, StagedOutputsMergedInLaneOrderReproduceSerialOrder) {
  for (const std::size_t lanes : {2u, 4u, 7u}) {
    for (const std::size_t workers : {1u, 2u, 4u}) {
      WorkerPool pool(lanes, workers);
      std::vector<std::vector<std::size_t>> staging(lanes);
      for (std::size_t round = 0; round < 50; ++round) {
        const std::size_t count = 1 + (round * 7) % 40;
        for (std::vector<std::size_t>& lane_out : staging) lane_out.clear();
        pool.run(count, [&](std::size_t lane, std::size_t begin,
                            std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            // A variable fan-out per index, like parties sending different
            // numbers of messages.
            for (std::size_t k = 0; k <= i % 3; ++k) {
              staging[lane].push_back(i * 4 + k);
            }
          }
        });
        std::vector<std::size_t> merged;
        for (const std::vector<std::size_t>& lane_out : staging) {
          merged.insert(merged.end(), lane_out.begin(), lane_out.end());
        }
        std::vector<std::size_t> serial;
        for (std::size_t i = 0; i < count; ++i) {
          for (std::size_t k = 0; k <= i % 3; ++k) serial.push_back(i * 4 + k);
        }
        ASSERT_EQ(merged, serial) << "lanes=" << lanes << " workers="
                                  << workers << " count=" << count;
      }
    }
  }
}

// Back-to-back dispatches through the generation/done handshake, with
// forced multi-threading so a single-core host still exercises the
// concurrent path (this is the test the CI TSAN job leans on).
TEST(WorkerPool, RepeatedDispatchStress) {
  WorkerPool pool(4, 3);
  std::vector<std::size_t> lane_sums(4, 0);
  constexpr std::size_t kDispatches = 2000;
  for (std::size_t d = 0; d < kDispatches; ++d) {
    pool.run(8, [&](std::size_t lane, std::size_t begin, std::size_t end) {
      lane_sums[lane] += end - begin;
    });
  }
  for (const std::size_t sum : lane_sums) {
    EXPECT_EQ(sum, 2 * kDispatches);  // 8 indices over 4 lanes
  }
}

TEST(WorkerPool, EmptyLeaseRunsTheSliceInlineOnce) {
  const WorkerPool::Lease serial = WorkerPool::lease(1);
  std::vector<std::size_t> calls;
  serial.run(5, [&](std::size_t lane, std::size_t begin, std::size_t end) {
    EXPECT_EQ(lane, 0u);
    calls.push_back(begin);
    calls.push_back(end);
  });
  EXPECT_EQ(calls, (std::vector<std::size_t>{0, 5}));
  serial.run(0, [&](std::size_t, std::size_t, std::size_t) {
    ADD_FAILURE() << "a zero-count run must not call the slice";
  });
}

// --- for_each: dynamic claims on a leased pool -----------------------------

void expect_each_index_once(std::size_t threads, std::size_t count) {
  std::vector<std::atomic<int>> hits(count);
  WorkerPool::for_each(threads, count,
                       [&](std::size_t i) { hits[i].fetch_add(1); });
  for (std::size_t i = 0; i < count; ++i) {
    EXPECT_EQ(hits[i].load(), 1)
        << "index " << i << " of " << count << " at " << threads << " threads";
  }
}

TEST(WorkerPool, ForEachCoversEveryIndexExactlyOnce) {
  for (const std::size_t threads : {0u, 1u, 2u, 3u, 8u}) {
    for (const std::size_t count : {0u, 1u, 97u}) {
      expect_each_index_once(threads, count);
    }
  }
}

TEST(WorkerPool, ForEachAtOneLaneOrOneItemRunsInline) {
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::size_t> order;
  WorkerPool::for_each(1, 20, [&](std::size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  std::vector<std::size_t> expected(20);
  for (std::size_t i = 0; i < expected.size(); ++i) expected[i] = i;
  EXPECT_EQ(order, expected);

  // A single item runs inline at any lane count: no pool is woken for it.
  WorkerPool::for_each(8, 1, [&](std::size_t i) {
    EXPECT_EQ(i, 0u);
    EXPECT_EQ(std::this_thread::get_id(), caller);
  });
}

TEST(WorkerPool, ForEachSlotWritesComposeToTheSameVector) {
  // The sweep's and the hunt's pattern: each index writes its own slot, so
  // the assembled vector cannot depend on the thread count.
  auto run = [](std::size_t threads) {
    std::vector<std::size_t> out(257);
    WorkerPool::for_each(threads, out.size(),
                         [&](std::size_t i) { out[i] = i * i + 7; });
    return out;
  };
  const std::vector<std::size_t> base = run(1);
  EXPECT_EQ(run(2), base);
  EXPECT_EQ(run(8), base);
}

TEST(WorkerPool, ForEachRethrowsAndThePoolStaysReusable) {
  for (const std::size_t threads : {1u, 4u}) {
    EXPECT_THROW(WorkerPool::for_each(threads, 64,
                                      [](std::size_t i) {
                                        if (i == 13) {
                                          throw std::runtime_error("unit 13");
                                        }
                                      }),
                 std::runtime_error);
  }
  // Every lane throws; the leased pool goes back to the cache and the next
  // fan-out on the same lane count still covers every index.
  EXPECT_THROW(WorkerPool::for_each(
                   4, 8, [](std::size_t) { throw std::runtime_error("boom"); }),
               std::runtime_error);
  expect_each_index_once(4, 32);
}

// However many lanes are asked for, a fan-out runs on at most
// default_workers(lanes) OS threads (the caller included), never one fresh
// thread per lane.
TEST(WorkerPool, ForEachNeverRunsOnMoreThreadsThanDefaultWorkers) {
  constexpr std::size_t kThreads = 16;
  std::mutex mutex;
  std::set<std::thread::id> ids;
  WorkerPool::for_each(kThreads, 256, [&](std::size_t) {
    const std::lock_guard<std::mutex> lock(mutex);
    ids.insert(std::this_thread::get_id());
  });
  EXPECT_GE(ids.size(), 1u);
  EXPECT_LE(ids.size(), WorkerPool::default_workers(kThreads));
}

// TREEAA_FORCE_WORKERS is parsed once per process, so this test also runs
// as its own ctest with TREEAA_FORCE_WORKERS=-1 (tests/perf/CMakeLists.txt).
// Only a plain decimal count overrides the hardware; anything else, a sign
// included, leaves default_workers at min(lanes, hardware).
TEST(WorkerPool, ForceWorkersOnlyOverridesWithAPlainCount) {
  const char* env = std::getenv("TREEAA_FORCE_WORKERS");
  const std::string value = env == nullptr ? "" : env;
  if (!value.empty() &&
      value.find_first_not_of("0123456789") == std::string::npos) {
    return;  // a real override: nothing about the hardware to check
  }
  const std::size_t hw =
      std::max<std::size_t>(1, std::thread::hardware_concurrency());
  EXPECT_EQ(WorkerPool::default_workers(hw + 1), hw)
      << "TREEAA_FORCE_WORKERS='" << value << "'";
}

}  // namespace
}  // namespace treeaa::perf

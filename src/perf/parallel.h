// A fixed-lane worker pool for deterministic intra-run parallelism.
//
// The simulator's round loop fans honest parties out over a fixed number of
// lanes using static chunked ranges: lane l always owns indices
// [l*chunk, min((l+1)*chunk, count)) with chunk = ceil(count / lanes).
// Because the partition depends only on (count, lanes) — never on timing —
// concatenating per-lane results in lane order reproduces the exact serial
// iteration order, which is what the engine's byte-identical determinism
// contract is built on (see docs/PERF.md). run() is a fork-join barrier:
// each lane writes only its own output, and the caller merges the outputs
// in lane order after run() returns.
//
// Lanes are a determinism unit, not a thread count: a pool with L lanes
// executes on min(L, hardware) OS threads, each running the lanes
// congruent to its index mod the worker count. The lane partition — and
// therefore every result — is identical whatever the worker count, so
// `--threads 8` produces the same bytes on a laptop, a 96-core server, or
// a single-core CI box (where the pool degenerates to inline serial
// execution with zero synchronization).
//
// Pools are built for short dispatches (a few microseconds of work per
// phase, hundreds of thousands of dispatches per benchmark): the caller
// participates as worker 0 so a dispatch does useful work while workers
// wake, and workers spin briefly before sleeping on a condition variable so
// back-to-back rounds never pay a futex round-trip. Engines are frequently
// constructed per-run (benches build thousands), so pools are recycled
// through a process-wide lease cache instead of spawning threads per
// engine: WorkerPool::lease(lanes) hands out an idle pool with that lane
// count or builds one, and the Lease returns it on destruction.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <utility>

#include <atomic>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

namespace treeaa::perf {

class WorkerPool {
 public:
  /// One lane's share of a dispatch: process indices [begin, end).
  using Slice =
      std::function<void(std::size_t lane, std::size_t begin, std::size_t end)>;

  /// Cumulative dispatch counters since pool construction. Pools are
  /// recycled through the lease cache, so consumers that want per-run
  /// numbers snapshot a baseline at lease time and report deltas (the obs
  /// drivers surface these as `pool_*` gauges — docs/PERF.md).
  struct DispatchStats {
    /// run() calls that fanned work out to the workers.
    std::uint64_t dispatches = 0;
    /// Dispatches where the dispatcher found sleeping workers to notify —
    /// the pool had gone cold between rounds (futex round-trip paid).
    std::uint64_t notify_wakeups = 0;
    /// Worker-side dispatch receipts that arrived while still spinning
    /// (the fast path: no sleep since the previous dispatch).
    std::uint64_t spin_wakeups = 0;
    /// Times a worker exhausted its spin window and blocked on the condvar.
    std::uint64_t cv_sleeps = 0;
    /// Items processed per lane, cumulative (index = lane).
    std::vector<std::uint64_t> lane_items;
  };

  /// RAII handle on a cached pool. Empty (get() == nullptr) for lane counts
  /// <= 1, where callers should take their serial path. Returning the pool
  /// to the cache on destruction keeps its threads alive for the next run.
  class Lease {
   public:
    Lease() = default;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    Lease(Lease&& other) noexcept : pool_(other.pool_) { other.pool_ = nullptr; }
    Lease& operator=(Lease&& other) noexcept {
      std::swap(pool_, other.pool_);
      return *this;
    }
    ~Lease();

    [[nodiscard]] WorkerPool* get() const { return pool_; }
    [[nodiscard]] explicit operator bool() const { return pool_ != nullptr; }

    /// The pool's run() when one is held; otherwise the serial fallback,
    /// slice(0, 0, count) on the caller (nothing when count is 0).
    void run(std::size_t count, const Slice& slice) const {
      if (pool_ != nullptr) {
        pool_->run(count, slice);
      } else if (count > 0) {
        slice(0, 0, count);
      }
    }

   private:
    friend class WorkerPool;
    explicit Lease(WorkerPool* pool) : pool_(pool) {}

    WorkerPool* pool_ = nullptr;
  };

  /// Resolves a user-facing --threads value: 0 means one lane per hardware
  /// thread, anything else is taken literally.
  [[nodiscard]] static std::size_t resolve_lanes(std::size_t threads);

  /// The worker count a default-constructed pool would use for this lane
  /// count: min(lanes, hardware), overridable via TREEAA_FORCE_WORKERS so
  /// single-core CI (notably the TSan job) still exercises real multi-worker
  /// dispatch.
  [[nodiscard]] static std::size_t default_workers(std::size_t lanes);

  /// The static chunk width for a dispatch: ceil(count / lanes).
  [[nodiscard]] static std::size_t chunk_size(std::size_t count,
                                              std::size_t lanes);

  /// Leases a pool with resolve_lanes(threads) lanes from the process-wide
  /// cache (building one on a miss). Lane counts <= 1 yield an empty Lease.
  [[nodiscard]] static Lease lease(std::size_t threads);

  /// Runs fn(i) once for every i in [0, count) on a leased pool of
  /// resolve_lanes(threads) lanes, for work lists whose items differ in
  /// cost: each lane claims the next unclaimed index from a shared cursor
  /// until none is left, so no static chunk strands a slow item. At one
  /// lane every index runs inline on the caller, in index order, and so
  /// does a single item at any lane count. fn must be safe to call
  /// concurrently for distinct indices, and callers that need a
  /// deterministic result write only index i's own slot. A lane whose fn
  /// throws stops claiming (the other lanes drain the rest); the lowest
  /// such lane's exception is rethrown once every lane is done, and the
  /// pool goes back to the cache reusable.
  static void for_each(std::size_t threads, std::size_t count,
                       const std::function<void(std::size_t)>& fn);

  /// A pool with `lanes` logical lanes executed by `workers` OS threads
  /// (the caller plus workers - 1 spawned threads). workers = 0 picks
  /// min(lanes, hardware concurrency); tests pass an explicit count to
  /// force real concurrency regardless of the host. Prefer lease() over
  /// direct construction so threads are reused across engines.
  explicit WorkerPool(std::size_t lanes, std::size_t workers = 0);
  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;
  ~WorkerPool();

  [[nodiscard]] std::size_t lanes() const { return lanes_; }
  [[nodiscard]] std::size_t workers() const { return workers_; }

  /// Snapshot of the cumulative dispatch counters. Safe to call between
  /// dispatches (the intended use); calling concurrently with run() yields
  /// a torn-but-harmless snapshot.
  [[nodiscard]] DispatchStats stats() const;

  /// Runs `slice` over [0, count) split into static chunks, one per lane,
  /// and returns once every lane has finished. The calling thread executes
  /// the lanes congruent to 0 mod workers(). If lanes threw, the lowest
  /// lane's exception is rethrown (a deterministic choice, unlike
  /// first-to-throw). Everything the lanes wrote is visible to the caller
  /// once run() returns, so per-lane outputs can be merged in lane order.
  void run(std::size_t count, const Slice& slice);

 private:
  void run_lane(std::size_t lane);
  void run_worker(std::size_t worker);
  void worker_main(std::size_t worker);

  std::size_t lanes_;
  std::size_t workers_;
  std::vector<std::thread> threads_;

  // Dispatch handoff. The dispatcher publishes slice_/count_/chunk_ and
  // then bumps generation_; workers observe the bump (acquire) and read the
  // published fields. done_ counts finished workers (release), which the
  // dispatcher spins on (acquire) before touching per-lane errors_.
  const Slice* slice_ = nullptr;
  std::size_t count_ = 0;
  std::size_t chunk_ = 0;
  std::vector<std::exception_ptr> errors_;
  std::atomic<std::uint64_t> generation_{0};
  std::atomic<std::size_t> done_{0};

  // Sleep/wake handshake (see parallel.cpp for the seq_cst argument).
  std::mutex mutex_;
  std::condition_variable cv_;
  std::atomic<std::size_t> sleepers_{0};
  std::atomic<bool> stop_{false};

  // Dispatch counters (DispatchStats). dispatches_/notify_wakeups_ are
  // dispatcher-only; lane_items_[l] has a unique writer (the worker owning
  // lane l); the worker-shared ones are relaxed atomics.
  std::uint64_t dispatches_ = 0;
  std::uint64_t notify_wakeups_ = 0;
  std::atomic<std::uint64_t> spin_wakeups_{0};
  std::atomic<std::uint64_t> cv_sleeps_{0};
  std::vector<std::uint64_t> lane_items_;
};

}  // namespace treeaa::perf

#include "perf/parallel.h"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <utility>

#include "common/check.h"

namespace treeaa::perf {

namespace {

// How long a worker spins on generation_ before sleeping on the condvar.
// Tuned for the engine's cadence: consecutive dispatches inside one run()
// arrive a few microseconds apart (well inside the spin window), while a
// pool idling between runs falls asleep and costs nothing.
constexpr int kSpinIterations = 1 << 14;

// One spin-wait step. On x86 `pause` (and `yield` on arm64) tells the core
// a sibling hyperthread may run; both keep the waiter off the memory bus.
inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#else
  std::this_thread::yield();
#endif
}

std::size_t hardware_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

// TREEAA_FORCE_WORKERS overrides the hardware worker count for
// default-constructed pools, so CI on single-core runners (the TSan job in
// particular) still builds real multi-worker pools and exercises the
// dispatch handshake under contention. Parsed once; 0 / unset / garbage
// means "no override". Only plain decimal digits count: a sign, a space or
// an out-of-range value is garbage, never a huge worker count.
std::size_t forced_workers() {
  static const std::size_t forced = [] {
    const char* env = std::getenv("TREEAA_FORCE_WORKERS");
    if (env == nullptr) return std::size_t{0};
    const char* end = env + std::strlen(env);
    std::size_t value = 0;
    const auto [ptr, ec] = std::from_chars(env, end, value);
    if (ec != std::errc{} || ptr != end) return std::size_t{0};
    return value;
  }();
  return forced;
}

// Idle pools keyed by lane count, waiting for their next lease. A Meyers
// singleton so the cache (and the pools' threads) are torn down in static
// destruction, after every Engine — engines live on the stack of main or a
// test body — has returned its lease.
struct LeaseCache {
  std::mutex mutex;
  std::vector<std::unique_ptr<WorkerPool>> idle;
};

LeaseCache& lease_cache() {
  static LeaseCache cache;
  return cache;
}

}  // namespace

WorkerPool::Lease::~Lease() {
  if (pool_ == nullptr) return;
  LeaseCache& cache = lease_cache();
  const std::lock_guard<std::mutex> lock(cache.mutex);
  cache.idle.emplace_back(pool_);
  pool_ = nullptr;
}

std::size_t WorkerPool::resolve_lanes(std::size_t threads) {
  if (threads != 0) return threads;
  return hardware_workers();
}

std::size_t WorkerPool::default_workers(std::size_t lanes) {
  const std::size_t forced = forced_workers();
  return std::min(lanes, forced != 0 ? forced : hardware_workers());
}

std::size_t WorkerPool::chunk_size(std::size_t count, std::size_t lanes) {
  TREEAA_REQUIRE(lanes >= 1);
  return (count + lanes - 1) / lanes;
}

WorkerPool::Lease WorkerPool::lease(std::size_t threads) {
  const std::size_t lanes = resolve_lanes(threads);
  if (lanes <= 1) return Lease();
  LeaseCache& cache = lease_cache();
  {
    // Reuse only pools whose full execution config matches the current
    // process settings — lane count and worker count (TREEAA_FORCE_WORKERS
    // can change the default) — so a cached pool is always
    // indistinguishable from a freshly built one.
    const std::size_t workers = default_workers(lanes);
    const std::lock_guard<std::mutex> lock(cache.mutex);
    for (auto it = cache.idle.begin(); it != cache.idle.end(); ++it) {
      if ((*it)->lanes() == lanes && (*it)->workers() == workers) {
        WorkerPool* pool = it->release();
        cache.idle.erase(it);
        return Lease(pool);
      }
    }
  }
  return Lease(new WorkerPool(lanes));
}

void WorkerPool::for_each(std::size_t threads, std::size_t count,
                          const std::function<void(std::size_t)>& fn) {
  if (count == 0) return;
  // A single item has nothing to share: run it inline rather than wake a
  // pool only to wait at its barrier for workers with nothing to do.
  const Lease pool = lease(count == 1 ? 1 : threads);
  const std::size_t lanes = pool ? pool.get()->lanes() : 1;
  // One index per lane of the dispatch; each lane then claims indices from
  // the cursor. Lanes beyond the worker count run after their worker's
  // earlier lanes have drained it, so they find it exhausted and return.
  std::atomic<std::size_t> next{0};
  pool.run(lanes, [&](std::size_t, std::size_t, std::size_t) {
    for (std::size_t i = next++; i < count; i = next++) fn(i);
  });
}

WorkerPool::WorkerPool(std::size_t lanes, std::size_t workers)
    : lanes_(lanes),
      workers_(workers == 0 ? default_workers(lanes)
                            : std::min(lanes, workers)) {
  TREEAA_REQUIRE_MSG(lanes >= 2, "a pool needs at least two lanes");
  errors_.resize(lanes_);
  lane_items_.assign(lanes_, 0);
  threads_.reserve(workers_ - 1);
  for (std::size_t worker = 1; worker < workers_; ++worker) {
    threads_.emplace_back([this, worker] { worker_main(worker); });
  }
}

WorkerPool::~WorkerPool() {
  stop_.store(true, std::memory_order_seq_cst);
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    cv_.notify_all();
  }
  for (std::thread& t : threads_) t.join();
}

WorkerPool::DispatchStats WorkerPool::stats() const {
  DispatchStats out;
  out.dispatches = dispatches_;
  out.notify_wakeups = notify_wakeups_;
  out.spin_wakeups = spin_wakeups_.load(std::memory_order_relaxed);
  out.cv_sleeps = cv_sleeps_.load(std::memory_order_relaxed);
  out.lane_items = lane_items_;
  return out;
}

void WorkerPool::run_lane(std::size_t lane) {
  const std::size_t begin = std::min(lane * chunk_, count_);
  const std::size_t end = std::min(begin + chunk_, count_);
  try {
    if (begin < end) {
      lane_items_[lane] += end - begin;
      (*slice_)(lane, begin, end);
    }
  } catch (...) {
    errors_[lane] = std::current_exception();
  }
}

void WorkerPool::run_worker(std::size_t worker) {
  for (std::size_t lane = worker; lane < lanes_; lane += workers_) {
    run_lane(lane);
  }
}

void WorkerPool::run(std::size_t count, const Slice& slice) {
  if (count == 0) return;
  slice_ = &slice;
  count_ = count;
  chunk_ = chunk_size(count, lanes_);
  std::fill(errors_.begin(), errors_.end(), nullptr);

  ++dispatches_;
  if (workers_ > 1) {
    done_.store(0, std::memory_order_relaxed);

    // Publish the dispatch. The generation bump and the sleepers_ read are
    // both seq_cst; together with the worker-side seq_cst sleepers_
    // increment (before its locked generation re-check) this makes a missed
    // wakeup impossible: either we observe the sleeper and notify under the
    // lock, or the sleeper's re-check observes our bump before it ever
    // blocks.
    generation_.fetch_add(1, std::memory_order_seq_cst);
    if (sleepers_.load(std::memory_order_seq_cst) > 0) {
      ++notify_wakeups_;
      const std::lock_guard<std::mutex> lock(mutex_);
      cv_.notify_all();
    }

    run_worker(0);

    // Barrier: the acquire load pairs with each worker's release increment
    // of done_, so every lane's writes are visible once the count is full.
    int spins = 0;
    while (done_.load(std::memory_order_acquire) != workers_ - 1) {
      cpu_relax();
      if (++spins >= kSpinIterations) {
        std::this_thread::yield();
        spins = 0;
      }
    }
  } else {
    // Single OS thread (single-core host): every lane runs inline, in lane
    // order, with no synchronization at all. The lane partition — and thus
    // every observable result — is the same as in the threaded case.
    run_worker(0);
  }
  slice_ = nullptr;

  for (const std::exception_ptr& error : errors_) {
    if (error != nullptr) std::rethrow_exception(error);
  }
}

void WorkerPool::worker_main(std::size_t worker) {
  std::uint64_t seen = 0;
  for (;;) {
    int spins = 0;
    bool slept = false;
    for (;;) {
      if (stop_.load(std::memory_order_acquire)) return;
      const std::uint64_t gen = generation_.load(std::memory_order_acquire);
      if (gen != seen) {
        seen = gen;
        if (!slept) spin_wakeups_.fetch_add(1, std::memory_order_relaxed);
        break;
      }
      if (++spins < kSpinIterations) {
        cpu_relax();
        continue;
      }
      std::unique_lock<std::mutex> wait_lock(mutex_);
      sleepers_.fetch_add(1, std::memory_order_seq_cst);
      cv_sleeps_.fetch_add(1, std::memory_order_relaxed);
      slept = true;
      cv_.wait(wait_lock, [&] {
        return stop_.load(std::memory_order_relaxed) ||
               generation_.load(std::memory_order_relaxed) != seen;
      });
      sleepers_.fetch_sub(1, std::memory_order_relaxed);
      spins = 0;
    }
    run_worker(worker);
    done_.fetch_add(1, std::memory_order_release);
  }
}

}  // namespace treeaa::perf

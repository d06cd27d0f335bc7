// Fixed-size worker pool for deterministic fork/join parallelism.
//
// The parallel simulation drivers (core/parallel_builder.h, core/parallel_workload.h)
// split work into independent items whose results land in per-item slots, so the
// *outcome* never depends on which thread ran which item -- only the wall-clock time
// does. ParallelFor is the single primitive: run fn(0) .. fn(n-1), possibly
// concurrently, and return when all of them finished. The calling thread always
// participates, so a pool constructed with `threads == 1` owns no worker threads at
// all and executes everything inline (zero synchronization on the 1-thread path).
//
// The builder issues thousands of short back-to-back jobs (waves of ~150 items of
// ~0.6 us each), so the per-job and per-item fixed costs decide whether it scales
// (measured in docs/performance.md):
//
//  - Spin-then-park hand-off. A worker that finished a job keeps polling for the
//    next one for up to kSpinBudget, giving the CPU back with a yield on every
//    poll, and only then parks on a condition variable. Between back-to-back
//    waves the lanes are therefore awake when the next job is published; a
//    condvar wake-up costs more than a whole wave's work on a virtualized host.
//    The yield (not a busy `pause` loop) is what keeps an oversubscribed host --
//    a 4-lane pool pinned to one core -- from starving the lane holding work.
//  - Placement. A polling thread is always runnable and looks cache-hot, so the
//    kernel never migrates it; each worker therefore starts on its own allowed
//    CPU (then drops the restriction) instead of stacking on its creator's.
//  - Chunked, lane-owned claims. A job's items form chunks of ChunkSize(n,
//    threads) items (at most kMaxChunk, fewer when that would leave lanes
//    without chunks); chunk c belongs to lane c % threads, and each lane claims
//    its own chunks through a cursor on its own cache line before stealing the
//    other lanes' in lane order. So a claim is one mostly uncontended fetch_add
//    per chunk, and in jobs of similar size the item -> lane mapping repeats
//    when nobody steals (which keeps per-item-index state, like the builder's
//    slot streams, on one core).
//    No per-item completion counter exists: the caller knows every item ran once
//    no chunk is unclaimed and every worker has left the job.
//  - Side work for the caller. The three-argument ParallelFor lets the calling
//    lane interleave its own serial work (the builder colors the next round)
//    with the job's items.
//
// Protocol. `epoch_` is odd while a job is open. The caller writes the job
// descriptor, publishes it with an odd epoch, drains alongside the workers,
// closes the job (even epoch), and waits until `active_` -- the count of workers
// inside the job -- drops to zero. A worker announces itself in `active_` and
// then re-reads the epoch; only if the job is still the one it saw does it read
// the descriptor or claim a chunk. All of these accesses are sequentially
// consistent, so either the caller's wait sees the worker's announcement or the
// worker sees the closed epoch and backs off without touching the (possibly
// retired) descriptor. The release decrement of `active_` after a worker's last
// item and the caller's acquire read of zero make every write done inside fn(i)
// happen-before the caller's reads after ParallelFor returns. Parking on either
// side uses the mutex-bracketed flag pattern (sleepers_ / caller_parked_) so no
// wake-up is lost.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#ifdef __linux__
#include <sched.h>
#endif

#include "util/macros.h"

namespace pgrid {

/// Fork/join pool over `threads` execution lanes (caller + threads-1 workers).
class ThreadPool {
 public:
  /// How long an idle lane keeps polling for the next job before it parks. It
  /// covers the serial gaps of the parallel builder (barrier gathers, a round's
  /// coloring) so consecutive waves find their lanes awake.
  static constexpr std::chrono::microseconds kSpinBudget{500};

  /// Most items per claim; jobs of 2 * kMaxChunk items per lane or more use it.
  static constexpr size_t kMaxChunk = 4;

  /// Items per claim in a job of `n` items on `lanes` lanes: chunk c holds items
  /// [c * size, (c+1) * size) (the last one may be short) and belongs to lane
  /// c % lanes. Small jobs get small chunks, so every lane owns a couple.
  static size_t ChunkSize(size_t n, size_t lanes) {
    return std::clamp<size_t>(n / (2 * std::max<size_t>(lanes, 1)), 1, kMaxChunk);
  }

  /// Creates a pool that runs ParallelFor on `threads` lanes. `threads == 0` is
  /// treated as 1. The caller participates, so only threads-1 OS threads are spawned.
  explicit ThreadPool(size_t threads)
      : threads_(threads == 0 ? 1 : threads), cursors_(new Cursor[threads_]) {
    const std::vector<int> cpus = WorkerCpus();
    workers_.reserve(threads_ - 1);
    for (size_t i = 0; i + 1 < threads_; ++i) {
      const int cpu = cpus.empty() ? -1 : cpus[i % cpus.size()];
      workers_.emplace_back([this, i, cpu] {
        PlaceOnCpu(cpu);
        WorkerLoop(i + 1);
      });
    }
  }

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  ~ThreadPool() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_.store(true);
    }
    wake_cv_.notify_all();
    for (std::thread& t : workers_) t.join();
  }

  /// Number of execution lanes (including the caller).
  size_t threads() const { return threads_; }

  /// Runs fn(0) .. fn(n-1) and returns once all calls completed. Items may run on
  /// any lane in any order; fn must therefore only touch state disjoint from other
  /// items' (or internally synchronized). Not reentrant: fn must not call
  /// ParallelFor on the same pool.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn) {
    ParallelFor(n, [&fn](size_t i, size_t /*lane*/) { fn(i); });
  }

  /// Lane-aware variant: fn(item, lane) where `lane` identifies the executing
  /// lane (0 = the calling thread, 1..threads()-1 = workers). Lanes are stable
  /// within one ParallelFor, so per-lane accumulators (profiler ring buffers,
  /// sharded stats) need no synchronization; the join gives the caller a
  /// happens-before edge on everything the lanes wrote.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn) {
    ParallelFor(n, fn, nullptr);
  }

  /// As above, plus side work for the calling lane. Once the job is published,
  /// the caller alternates between `caller_step()` -- which returns whether it
  /// made progress -- and the items: whenever a step makes none, it runs one
  /// chunk of items instead, and it returns once every item has run. So the
  /// side work fills the caller's share of the job and its wait at the join,
  /// and holds the workers up by at most one step; what is left carries over to
  /// the caller's next opportunity. Steps must not touch state the items touch.
  /// Without workers no step runs.
  void ParallelFor(size_t n, const std::function<void(size_t, size_t)>& fn,
                   const std::function<bool()>& caller_step) {
    if (workers_.empty() || n == 0 || (n == 1 && !caller_step)) {
      for (size_t i = 0; i < n; ++i) fn(i, 0);
      return;
    }
    const uint64_t epoch = epoch_.load(std::memory_order_relaxed);
    PGRID_CHECK(epoch % 2 == 0);  // reentrant / concurrent use
    job_fn_ = &fn;
    job_n_ = n;
    job_chunk_ = ChunkSize(n, threads_);
    job_chunks_ = (n + job_chunk_ - 1) / job_chunk_;
    for (size_t l = 0; l < threads_; ++l) {
      cursors_[l].taken.store(0, std::memory_order_relaxed);
    }
    epoch_.store(epoch + 1);  // open: publishes the descriptor
    if (sleepers_.load() > 0) {
      { std::lock_guard<std::mutex> lock(mu_); }
      wake_cv_.notify_all();
    }
    if (caller_step) {
      // Claimed chunks belong to lanes that announced themselves in active_
      // first, so "nothing left to claim and nobody active" means done.
      for (size_t chunk = 0; active_.load() > 0 || Unclaimed();) {
        if (caller_step()) continue;
        if (ClaimNext(/*lane=*/0, &chunk)) {
          RunChunk(chunk, /*lane=*/0);
        } else {
          std::this_thread::yield();  // the workers hold the rest: let them run
        }
      }
    }
    Drain(/*lane=*/0);
    // Every item is claimed. Close the job so late risers back off, then wait
    // for the workers still running their last chunk.
    epoch_.store(epoch + 2);
    if (!SpinUntil([this] { return active_.load() == 0; })) {
      std::unique_lock<std::mutex> lock(mu_);
      caller_parked_.store(true);
      done_cv_.wait(lock, [this] { return active_.load() == 0; });
      caller_parked_.store(false);
    }
  }

 private:
  /// Polls `ready` with a yield between polls until it holds or kSpinBudget
  /// elapses; returns whether it held.
  template <typename Pred>
  static bool SpinUntil(Pred ready) {
    const auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (uint32_t polls = 1;; ++polls) {
      if (ready()) return true;
      if (polls % 16 == 0 && std::chrono::steady_clock::now() >= deadline) {
        return ready();
      }
      std::this_thread::yield();
    }
  }

  /// CPUs to start workers on: the allowed CPUs other than the caller's, in
  /// order (all allowed CPUs if the caller has none to spare). Empty where CPU
  /// placement is unsupported.
  static std::vector<int> WorkerCpus() {
    std::vector<int> cpus;
#ifdef __linux__
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return cpus;
    const int caller = sched_getcpu();
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed) && c != caller) cpus.push_back(c);
    }
    if (cpus.empty() && caller >= 0) cpus.push_back(caller);
#endif
    return cpus;
  }

  /// Moves the calling thread onto `cpu`, then lifts the restriction again, so
  /// the thread starts there but stays free to migrate. A spinning worker looks
  /// permanently cache-hot to the load balancer and would otherwise stay on the
  /// CPU that created it -- the caller's -- sharing one core with every other
  /// lane. No-op for cpu < 0.
  static void PlaceOnCpu(int cpu) {
#ifdef __linux__
    if (cpu < 0) return;
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) == 0) {
      sched_setaffinity(0, sizeof(allowed), &allowed);
    }
#else
    (void)cpu;
#endif
  }

  /// Claims the next unclaimed chunk owned by lane `owner` into *chunk.
  bool Claim(size_t owner, size_t* chunk) {
    const size_t k = cursors_[owner].taken.fetch_add(1, std::memory_order_relaxed);
    *chunk = owner + k * threads_;
    return *chunk < job_chunks_;
  }

  /// Whether some chunk of the current job is not yet claimed.
  bool Unclaimed() const {
    for (size_t l = 0; l < threads_; ++l) {
      const size_t taken = cursors_[l].taken.load(std::memory_order_relaxed);
      if (l + taken * threads_ < job_chunks_) return true;
    }
    return false;
  }

  /// Claims the next unclaimed chunk for `lane`: its own chunks first, then
  /// the other lanes' in lane order. False once every chunk is claimed.
  bool ClaimNext(size_t lane, size_t* chunk) {
    for (size_t v = 0; v < threads_; ++v) {
      const size_t owner = (lane + v) % threads_;
      const size_t taken = cursors_[owner].taken.load(std::memory_order_relaxed);
      if (owner + taken * threads_ >= job_chunks_) continue;  // exhausted
      if (Claim(owner, chunk)) return true;
    }
    return false;
  }

  void RunChunk(size_t chunk, size_t lane) {
    const size_t end = std::min(job_n_, (chunk + 1) * job_chunk_);
    for (size_t i = chunk * job_chunk_; i < end; ++i) (*job_fn_)(i, lane);
  }

  /// Runs chunks of the current job until every chunk is claimed.
  void Drain(size_t lane) {
    for (size_t chunk = 0; ClaimNext(lane, &chunk);) RunChunk(chunk, lane);
  }

  void WorkerLoop(size_t lane) {
    uint64_t seen = 0;  // last job this worker joined or skipped
    uint64_t epoch = 0;
    const auto job_or_stop = [this, &seen, &epoch] {
      epoch = epoch_.load();
      return stop_.load() || (epoch % 2 == 1 && epoch != seen);
    };
    // A fresh worker parks before it ever spins: a spinning thread stays
    // runnable on the CPU that created it and looks cache-hot to the load
    // balancer, so it would never move off the caller's CPU. A wake-up, by
    // contrast, places the thread on an idle CPU.
    for (bool placed = false;; placed = true) {
      if (!placed || !SpinUntil(job_or_stop)) {
        std::unique_lock<std::mutex> lock(mu_);
        sleepers_.fetch_add(1);
        wake_cv_.wait(lock, job_or_stop);
        sleepers_.fetch_sub(1);
      }
      if (stop_.load()) return;
      seen = epoch;
      active_.fetch_add(1);
      if (epoch_.load() == epoch) Drain(lane);  // else: closed meanwhile
      if (active_.fetch_sub(1) == 1 && caller_parked_.load()) {
        { std::lock_guard<std::mutex> lock(mu_); }
        done_cv_.notify_all();
      }
    }
  }

  const size_t threads_;
  std::vector<std::thread> workers_;

  // Parking. The mutex only brackets the park/wake edges, never a job.
  std::mutex mu_;
  std::condition_variable wake_cv_;  // parked workers wait for a job
  std::condition_variable done_cv_;  // the parked caller waits for active_ == 0
  std::atomic<bool> stop_{false};
  std::atomic<size_t> sleepers_{0};
  std::atomic<bool> caller_parked_{false};

  // Job descriptor: written by the caller before the odd epoch is published,
  // read by workers that confirmed that epoch, retired once active_ is 0.
  const std::function<void(size_t, size_t)>* job_fn_ = nullptr;
  size_t job_n_ = 0;
  size_t job_chunk_ = 1;   // items per chunk
  size_t job_chunks_ = 0;  // chunks in the job

  std::atomic<uint64_t> epoch_{0};  // odd while a job is open
  std::atomic<size_t> active_{0};   // workers inside the current job

  // Per-lane claim cursors, each on its own cache line: cursors_[l] counts the
  // claimed chunks among lane l's (chunks l, l + threads, l + 2 * threads, ...).
  struct alignas(64) Cursor {
    std::atomic<size_t> taken{0};
  };
  std::unique_ptr<Cursor[]> cursors_;
};

}  // namespace pgrid

#include "util/thread_pool.h"

#include <atomic>
#include <chrono>
#include <cstdint>
#include <numeric>
#include <thread>
#include <vector>

#include "gtest/gtest.h"

namespace pgrid {
namespace {

TEST(ThreadPoolTest, RunsEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr size_t kN = 10000;
  std::vector<std::atomic<int>> hits(kN);
  pool.ParallelFor(kN, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kN; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
}

TEST(ThreadPoolTest, ZeroItemsIsANoOp) {
  ThreadPool pool(4);
  pool.ParallelFor(0, [](size_t) { FAIL() << "must not be called"; });
}

TEST(ThreadPoolTest, ZeroThreadsBehavesAsOne) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.threads(), 1u);
}

TEST(ThreadPoolTest, SingleThreadExecutesInlineInOrder) {
  ThreadPool pool(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<size_t> order;
  pool.ParallelFor(100, [&](size_t i) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    order.push_back(i);
  });
  ASSERT_EQ(order.size(), 100u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(ThreadPoolTest, ResultsInPerItemSlotsAreVisibleAfterJoin) {
  ThreadPool pool(8);
  constexpr size_t kN = 4096;
  std::vector<uint64_t> out(kN, 0);  // plain (non-atomic) slots
  pool.ParallelFor(kN, [&](size_t i) { out[i] = i * i; });
  uint64_t sum = 0;
  for (size_t i = 0; i < kN; ++i) sum += out[i];
  uint64_t expected = 0;
  for (size_t i = 0; i < kN; ++i) expected += i * i;
  EXPECT_EQ(sum, expected);
}

TEST(ThreadPoolTest, PoolIsReusableAcrossJobs) {
  ThreadPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<uint64_t> sum{0};
    pool.ParallelFor(97, [&](size_t i) { sum.fetch_add(i + 1); });
    EXPECT_EQ(sum.load(), 97u * 98u / 2);
  }
}

TEST(ThreadPoolTest, ManyMoreItemsThanThreads) {
  ThreadPool pool(2);
  std::atomic<uint64_t> count{0};
  pool.ParallelFor(100000, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 100000u);
}

// Runs one job of `n` items and checks that every index ran exactly once and
// that the per-lane sums -- accumulated without synchronization, one padded
// slot per lane -- add up exactly.
void ExpectExactPerLaneSums(ThreadPool* pool, size_t n) {
  struct alignas(64) LaneSum {
    uint64_t sum = 0;
    uint64_t count = 0;
  };
  std::vector<LaneSum> lanes(pool->threads());
  std::vector<int> hits(n, 0);  // plain ints: each index has one writer
  pool->ParallelFor(n, [&](size_t i, size_t lane) {
    ASSERT_LT(lane, pool->threads());
    ++hits[i];
    lanes[lane].sum += i + 1;
    ++lanes[lane].count;
  });
  uint64_t sum = 0;
  uint64_t count = 0;
  for (const LaneSum& l : lanes) {
    sum += l.sum;
    count += l.count;
  }
  EXPECT_EQ(count, n) << "n=" << n << " threads=" << pool->threads();
  EXPECT_EQ(sum, n * (n + 1) / 2) << "n=" << n << " threads=" << pool->threads();
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(hits[i], 1) << "index " << i << " of n=" << n;
  }
}

TEST(ThreadPoolTest, ChunksShrinkSoSmallJobsReachEveryLane) {
  EXPECT_EQ(ThreadPool::ChunkSize(1, 4), 1u);
  EXPECT_EQ(ThreadPool::ChunkSize(15, 4), 1u);
  EXPECT_EQ(ThreadPool::ChunkSize(20, 4), 2u);
  EXPECT_EQ(ThreadPool::ChunkSize(150, 4), ThreadPool::kMaxChunk);
  EXPECT_EQ(ThreadPool::ChunkSize(100000, 8), ThreadPool::kMaxChunk);
  EXPECT_EQ(ThreadPool::ChunkSize(7, 0), ThreadPool::ChunkSize(7, 1));
}

TEST(ThreadPoolTest, PerLaneSumsAreExactForAwkwardJobSizes) {
  // Items are claimed in chunks owned round-robin by the lanes, so the edge
  // cases are jobs smaller than the lane count (some lanes own no chunk),
  // sizes that leave a short last chunk, a single chunk, and sizes around
  // the points where the chunk size changes.
  const size_t c = ThreadPool::kMaxChunk;
  for (const size_t threads : {2u, 3u, 4u, 8u}) {
    ThreadPool pool(threads);
    const size_t full = 2 * threads * c;  // smallest job with full-size chunks
    for (const size_t n :
         {size_t{1}, size_t{2}, threads - 1, threads, threads + 1, 2 * threads - 1,
          2 * threads, 2 * threads + 1, 4 * threads + 3, full - 1, full, full + 1,
          full + c - 1, size_t{1000}, size_t{1001}}) {
      if (n == 0) continue;
      ExpectExactPerLaneSums(&pool, n);
    }
  }
}

TEST(ThreadPoolTest, BackToBackJobsAcrossTheSpinParkBoundary) {
  // Bursts of tiny back-to-back jobs keep the lanes spinning between jobs;
  // sleeping past the spin budget makes them park, so the first job of the
  // next burst has to wake them. Every job must still run each item once.
  ThreadPool pool(4);
  for (int burst = 0; burst < 6; ++burst) {
    for (size_t n = 1; n <= 20; ++n) {
      ExpectExactPerLaneSums(&pool, n);
    }
    std::this_thread::sleep_for(3 * ThreadPool::kSpinBudget);
  }
}

TEST(ThreadPoolTest, ParkedWorkersWakeUpForTheNextJob) {
  // After the workers parked, a job whose items wait for a second lane can
  // only finish if a parked worker woke up and joined it. The wait is bounded
  // so a lost wake-up fails the test instead of hanging it.
  ThreadPool pool(2);
  ExpectExactPerLaneSums(&pool, 8);
  for (int round = 0; round < 3; ++round) {
    std::this_thread::sleep_for(3 * ThreadPool::kSpinBudget);
    std::atomic<uint32_t> lanes_seen{0};
    std::atomic<bool> joined{false};
    pool.ParallelFor(2, [&](size_t, size_t lane) {
      lanes_seen.fetch_or(1u << lane);
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (lanes_seen.load() != 3u && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      if (lanes_seen.load() == 3u) joined.store(true);
    });
    EXPECT_TRUE(joined.load()) << "round " << round;
  }
}

TEST(ThreadPoolTest, CallerStepsRunOnTheCallingThreadAlongsideTheItems) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const size_t n : {size_t{1}, size_t{3}, size_t{64}, size_t{257}}) {
    std::vector<std::atomic<int>> hits(n);
    int steps = 0;
    pool.ParallelFor(
        n, [&](size_t i, size_t) { hits[i].fetch_add(1); },
        [&] {
          EXPECT_EQ(std::this_thread::get_id(), caller);
          if (steps == 50) return false;  // no more side work: help instead
          ++steps;
          return true;
        });
    EXPECT_LE(steps, 50);
    for (size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << "n=" << n;
  }
}

TEST(ThreadPoolTest, EndlessCallerStepsCannotStallTheJob) {
  // A caller that always has side work never claims an item itself; the
  // workers run them all, and ParallelFor returns once they did.
  ThreadPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  uint64_t steps = 0;
  pool.ParallelFor(
      hits.size(), [&](size_t i, size_t lane) {
        EXPECT_NE(lane, 0u);
        hits[i].fetch_add(1);
      },
      [&] {
        ++steps;
        return true;
      });
  for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  EXPECT_GT(steps, 0u);
}

TEST(ThreadPoolTest, CallerStepsNeverRunWithoutWorkers) {
  ThreadPool pool(1);
  bool stepped = false;
  std::vector<size_t> order;
  pool.ParallelFor(
      10, [&](size_t i, size_t) { order.push_back(i); },
      [&] {
        stepped = true;
        return false;
      });
  EXPECT_FALSE(stepped);
  ASSERT_EQ(order.size(), 10u);
  for (size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

}  // namespace
}  // namespace pgrid

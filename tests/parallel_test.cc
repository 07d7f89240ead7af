// Unit tests for the concurrency subsystem (src/common/parallel.h): pool
// lifecycle, the ParallelFor/ParallelMap contracts, exception propagation,
// nested-call safety, and AUTOBI_THREADS resolution.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <future>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

namespace autobi {
namespace {

TEST(ParallelForTest, CoversEveryIndexExactlyOnce) {
  constexpr size_t kN = 1000;
  std::vector<int> hits(kN, 0);
  std::atomic<int> calls{0};
  ParallelFor(
      kN,
      [&](size_t i) {
        ++hits[i];
        calls.fetch_add(1, std::memory_order_relaxed);
      },
      8);
  EXPECT_EQ(calls.load(), int(kN));
  for (size_t i = 0; i < kN; ++i) EXPECT_EQ(hits[i], 1) << "index " << i;
}

TEST(ParallelForTest, EmptyRangeInvokesNothing) {
  int calls = 0;
  ParallelFor(0, [&](size_t) { ++calls; }, 8);
  EXPECT_EQ(calls, 0);
}

TEST(ParallelForTest, FewerItemsThanThreads) {
  std::vector<size_t> out(3, 0);
  ParallelFor(3, [&](size_t i) { out[i] = i + 1; }, 16);
  EXPECT_EQ(out, (std::vector<size_t>{1, 2, 3}));
}

TEST(ParallelForTest, SerialFallbackAtOneThread) {
  // threads=1 must run on the calling thread, in order.
  std::vector<size_t> order;
  ParallelFor(5, [&](size_t i) { order.push_back(i); }, 1);
  EXPECT_EQ(order, (std::vector<size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelForTest, NestedCallsRunSeriallyWithoutDeadlock) {
  constexpr size_t kOuter = 4;
  constexpr size_t kInner = 8;
  std::vector<std::vector<int>> results(kOuter);
  ParallelFor(
      kOuter,
      [&](size_t o) {
        results[o].assign(kInner, 0);
        // The nested region must complete (serially when on a pool worker)
        // rather than deadlocking on a saturated pool.
        ParallelFor(
            kInner, [&](size_t i) { results[o][i] = int(o * kInner + i); },
            4);
      },
      4);
  for (size_t o = 0; o < kOuter; ++o) {
    for (size_t i = 0; i < kInner; ++i) {
      EXPECT_EQ(results[o][i], int(o * kInner + i));
    }
  }
}

TEST(ParallelForTest, PropagatesExceptionOfLowestFailingIndex) {
  // Every index >= 5 throws. Indices are taken in ascending order and every
  // index below a failing one runs to completion, so the lowest failing
  // index overall (5) must be the one rethrown.
  try {
    ParallelFor(
        100,
        [&](size_t i) {
          if (i >= 5) throw std::runtime_error(std::to_string(i));
        },
        4);
    FAIL() << "expected ParallelFor to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "5");
  }
}

TEST(ParallelForTest, PoolUsableAfterException) {
  EXPECT_THROW(ParallelFor(
                   64, [](size_t i) { if (i == 7) throw std::logic_error("x"); },
                   8),
               std::logic_error);
  // Workers must have survived the failed region.
  std::atomic<int> calls{0};
  ParallelFor(64, [&](size_t) { calls.fetch_add(1); }, 8);
  EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelForTest, CallerFinishesRegionWhenPoolIsBusy) {
  // Park every worker of the shared pool, as another request's long stage
  // would. The region's helper then sits queued, and the caller must take
  // every index itself instead of waiting for it.
  ThreadPool& pool = ThreadPool::Global();
  pool.EnsureWorkers(1);
  const int workers = pool.size();
  std::promise<void> release;
  std::shared_future<void> latch = release.get_future().share();
  std::atomic<int> parked{0};
  for (int w = 0; w < workers; ++w) {
    pool.Submit([&parked, latch] {
      parked.fetch_add(1);
      latch.wait();
    });
  }
  while (parked.load() < workers) std::this_thread::yield();

  std::atomic<int> calls{0};
  std::future<void> region = std::async(std::launch::async, [&] {
    ParallelFor(64, [&](size_t) { calls.fetch_add(1); }, 2);
  });
  const bool finished =
      region.wait_for(std::chrono::seconds(3)) == std::future_status::ready;
  // Released either way, so a caller that does wait on its helper fails
  // this test instead of hanging it.
  release.set_value();
  region.get();
  EXPECT_TRUE(finished) << "ParallelFor waited for a queued helper";
  EXPECT_EQ(calls.load(), 64);
}

TEST(ParallelForTest, ConcurrentCallersShareThePool) {
  // Three callers each run 2000 short regions on the shared pool, so
  // helpers routinely start after their caller has closed the region. Every
  // 100th round throws from indices 7, 9, 11 and 13 of a 16-item region.
  constexpr int kCallers = 3;
  constexpr int kRounds = 2000;
  std::vector<std::future<int>> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.push_back(std::async(std::launch::async, [c] {
      int bad = 0;
      for (int round = 0; round < kRounds; ++round) {
        if (round % 100 == 99) {
          try {
            ParallelFor(
                16,
                [](size_t i) {
                  if (i >= 7 && i % 2 == 1) {
                    throw std::runtime_error(std::to_string(i));
                  }
                },
                3);
            ++bad;
          } catch (const std::runtime_error& e) {
            bad += std::string(e.what()) != "7";
          }
          continue;
        }
        std::vector<int> out(5, -1);
        ParallelFor(
            5, [&](size_t i) { out[i] = c * kRounds + round + int(i); }, 3);
        for (size_t i = 0; i < out.size(); ++i) {
          bad += out[i] != c * kRounds + round + int(i);
        }
      }
      return bad;
    }));
  }
  for (std::future<int>& caller : callers) EXPECT_EQ(caller.get(), 0);
}

TEST(ParallelMapTest, ResultsInIndexOrder) {
  std::vector<int> out = ParallelMap(
      50, [](size_t i) { return int(i) * 3; }, 8);
  ASSERT_EQ(out.size(), 50u);
  for (size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], int(i) * 3);
}

TEST(LargestFirstTest, DescendingSizeTiesInIndexOrder) {
  const std::vector<size_t> sizes = {3, 9, 3, 0, 9, 5};
  EXPECT_EQ(LargestFirst(sizes.size(), [&](size_t i) { return sizes[i]; }),
            (std::vector<size_t>{1, 4, 5, 0, 2, 3}));
}

TEST(ThreadPoolTest, FixedSizeAndGrowth) {
  ThreadPool pool(2);
  EXPECT_EQ(pool.size(), 2);
  pool.EnsureWorkers(4);
  EXPECT_EQ(pool.size(), 4);
  pool.EnsureWorkers(1);  // Never shrinks.
  EXPECT_EQ(pool.size(), 4);
}

TEST(ThreadPoolTest, ZeroWorkerPoolRunsInline) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.size(), 0);
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);  // Inline: done by the time Submit returns.
}

TEST(ThreadPoolTest, DrainsQueueOnShutdown) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 32; ++i) {
      pool.Submit([&] { done.fetch_add(1); });
    }
    // Destructor must run all queued tasks before joining.
  }
  EXPECT_EQ(done.load(), 32);
}

TEST(ThreadCountTest, ParseThreadCount) {
  EXPECT_EQ(ParseThreadCount(nullptr), 0);
  EXPECT_EQ(ParseThreadCount(""), 0);
  EXPECT_EQ(ParseThreadCount("abc"), 0);
  EXPECT_EQ(ParseThreadCount("12x"), 0);
  EXPECT_EQ(ParseThreadCount("0"), 0);
  EXPECT_EQ(ParseThreadCount("-3"), 0);
  EXPECT_EQ(ParseThreadCount("4"), 4);
  EXPECT_EQ(ParseThreadCount("999999"), kMaxThreads);
}

TEST(ThreadCountTest, ResolveThreadsHonorsEnvAndExplicitRequest) {
  const char* saved = std::getenv("AUTOBI_THREADS");
  std::string saved_value = saved ? saved : "";

  setenv("AUTOBI_THREADS", "3", 1);
  EXPECT_EQ(ResolveThreads(0), 3);   // env wins for "auto".
  EXPECT_EQ(ResolveThreads(5), 5);   // explicit request wins over env.
  setenv("AUTOBI_THREADS", "garbage", 1);
  EXPECT_EQ(ResolveThreads(0), HardwareThreads());  // invalid -> hardware.

  if (saved) {
    setenv("AUTOBI_THREADS", saved_value.c_str(), 1);
  } else {
    unsetenv("AUTOBI_THREADS");
  }
  EXPECT_GE(HardwareThreads(), 1);
}

}  // namespace
}  // namespace autobi

// Property tests for the runtime thread pool: parallel_for covers every
// index exactly once under adversarial range/grain combinations, nested
// submission cannot deadlock, for_each_thread runs once on every thread and
// concurrent calls all complete, and exceptions from a parallel_for body or
// a for_each_thread function propagate to the caller.

#include "runtime/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

namespace flightnn::runtime {
namespace {

struct CoverageParam {
  int threads;
  std::int64_t begin;
  std::int64_t end;
  std::int64_t grain;
};

class CoverageProperty : public ::testing::TestWithParam<CoverageParam> {};

TEST_P(CoverageProperty, EveryIndexExactlyOnce) {
  const auto p = GetParam();
  ThreadPool pool(p.threads);
  const std::int64_t range = p.end > p.begin ? p.end - p.begin : 0;
  // One counter slot per index; chunks are disjoint so no atomics needed for
  // the increments themselves -- TSan would flag any overlap as a race.
  std::vector<int> seen(static_cast<std::size_t>(range), 0);
  std::atomic<int> calls{0};
  pool.parallel_for(p.begin, p.end, p.grain,
                    [&](std::int64_t lo, std::int64_t hi) {
                      calls.fetch_add(1);
                      ASSERT_LE(p.begin, lo);
                      ASSERT_LE(lo, hi);
                      ASSERT_LE(hi, p.end);
                      for (std::int64_t i = lo; i < hi; ++i) {
                        ++seen[static_cast<std::size_t>(i - p.begin)];
                      }
                    });
  for (std::int64_t i = 0; i < range; ++i) {
    EXPECT_EQ(seen[static_cast<std::size_t>(i)], 1) << "index " << i;
  }
  if (range == 0) {
    EXPECT_EQ(calls.load(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AdversarialRanges, CoverageProperty,
    ::testing::Values(
        // Empty and single-element ranges.
        CoverageParam{4, 0, 0, 1}, CoverageParam{4, 5, 5, 3},
        CoverageParam{4, 0, 1, 1}, CoverageParam{1, 0, 1, 1},
        // Range smaller than thread count / than grain.
        CoverageParam{7, 0, 3, 1}, CoverageParam{4, 0, 10, 100},
        // Grain that does not divide the range; non-power-of-two threads.
        CoverageParam{3, 0, 100, 7}, CoverageParam{7, 0, 1000, 13},
        // Nonzero begin; serial pool on a large range.
        CoverageParam{4, 1000, 1777, 5}, CoverageParam{1, 0, 10000, 1},
        // Many tiny chunks hammering the claim path.
        CoverageParam{7, 0, 5000, 1}));

TEST(ThreadPoolTest, SizeClampsToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).size(), 1);
  EXPECT_EQ(ThreadPool(-3).size(), 1);
  EXPECT_EQ(ThreadPool(5).size(), 5);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  ThreadPool pool(2);  // one worker: nesting must self-serve, not wait
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 8, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 64, 1, [&](std::int64_t ilo, std::int64_t ihi) {
        total.fetch_add(ihi - ilo);
      });
    }
  });
  EXPECT_EQ(total.load(), 8 * 64);
}

TEST(ThreadPoolTest, DeeplyNestedSubmissionCompletes) {
  ThreadPool pool(4);
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 4, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) {
      pool.parallel_for(0, 4, 1, [&](std::int64_t mlo, std::int64_t mhi) {
        for (std::int64_t m = mlo; m < mhi; ++m) {
          pool.parallel_for(0, 16, 1, [&](std::int64_t ilo, std::int64_t ihi) {
            total.fetch_add(ihi - ilo);
          });
        }
      });
    }
  });
  EXPECT_EQ(total.load(), 4 * 4 * 16);
}

// for_each_thread runs its function once on each of the pool's threads,
// the caller one of them; on a pool without workers, once, on the caller.
TEST(ThreadPoolTest, ForEachThreadRunsOnceOnEveryThread) {
  for (const int threads : {1, 2, 4, 7}) {
    ThreadPool pool(threads);
    std::mutex mutex;
    std::vector<std::thread::id> ran;
    pool.for_each_thread([&] {
      const std::lock_guard<std::mutex> lock(mutex);
      ran.push_back(std::this_thread::get_id());
    });
    const std::set<std::thread::id> distinct(ran.begin(), ran.end());
    EXPECT_EQ(ran.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(distinct.size(), static_cast<std::size_t>(threads));
    EXPECT_EQ(distinct.count(std::this_thread::get_id()), 1U) << threads;
  }
}

// 2-4 threads call for_each_thread on one pool at once, many times over:
// every call returns, having run its function once on each of its caller
// and the workers. Two calls whose chunks interleaved would each hold some
// threads at their barrier while waiting for the rest, and neither would
// return.
TEST(ThreadPoolTest, ConcurrentForEachThreadCallsAllComplete) {
  ThreadPool pool(4);
  const auto pool_threads = static_cast<std::size_t>(pool.size());
  for (int callers = 2; callers <= 4; ++callers) {
    for (int round = 0; round < 50; ++round) {
      std::mutex mutex;
      std::vector<std::vector<std::thread::id>> ran(
          static_cast<std::size_t>(callers));
      std::atomic<int> ready{0};
      std::vector<std::thread> threads;
      for (int c = 0; c < callers; ++c) {
        threads.emplace_back([&, c] {
          ready.fetch_add(1);
          while (ready.load() < callers) std::this_thread::yield();
          pool.for_each_thread([&, c] {
            const std::lock_guard<std::mutex> lock(mutex);
            ran[static_cast<std::size_t>(c)].push_back(
                std::this_thread::get_id());
          });
        });
      }
      for (auto& thread : threads) thread.join();
      for (int c = 0; c < callers; ++c) {
        const auto& ids = ran[static_cast<std::size_t>(c)];
        EXPECT_EQ(ids.size(), pool_threads)
            << callers << " callers, call " << c;
        EXPECT_EQ(std::set<std::thread::id>(ids.begin(), ids.end()).size(),
                  pool_threads)
            << callers << " callers, call " << c;
      }
    }
  }
}

TEST(ThreadPoolTest, WorkerExceptionPropagatesToCaller) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(0, 100, 1,
                        [&](std::int64_t lo, std::int64_t /*hi*/) {
                          if (lo >= 40) throw std::runtime_error("chunk failed");
                        }),
      std::runtime_error);
  // The pool survives a failed loop and runs subsequent work.
  std::atomic<std::int64_t> total{0};
  pool.parallel_for(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
    total.fetch_add(hi - lo);
  });
  EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPoolTest, ExceptionFromSerialPathPropagates) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.parallel_for(0, 10, 1,
                                 [](std::int64_t, std::int64_t) {
                                   throw std::invalid_argument("serial");
                                 }),
               std::invalid_argument);
}

// Chunks are claimed outside the pool mutex, so an op a worker found
// runnable can drain before the worker enters it. The worker must stay in
// its loop then: one that left would leave the pool a thread short, and
// the next for_each_thread would wait for it forever (ctest's timeout
// fails that). Ops of four 5 us chunks drain while workers wake: over 40
// fresh pools of 500 ops each, a loop that left hung in about half the
// runs, not in every one.
TEST(ThreadPoolTest, WorkersStayWhenTheOpTheyFoundDrains) {
  for (int round = 0; round < 40; ++round) {
    ThreadPool pool(4);
    for (int op = 0; op < 500; ++op) {
      pool.parallel_for(0, 4, 1, [](std::int64_t, std::int64_t) {
        const auto start = std::chrono::steady_clock::now();
        while (std::chrono::steady_clock::now() - start <
               std::chrono::microseconds(5)) {
        }
      });
    }
    std::atomic<int> ran{0};
    pool.for_each_thread([&] { ran.fetch_add(1); });
    EXPECT_EQ(ran.load(), pool.size()) << "round " << round;
  }
}

// A for_each_thread function that throws on one thread, the caller's or a
// worker's, still takes that thread to the barrier: the call rethrows on
// the caller once every thread has run the function and passed the
// barrier, and the pool then runs a parallel_for and a second
// for_each_thread to completion.
TEST(ThreadPoolTest, ForEachThreadRethrowsAfterEveryThreadPassedTheBarrier) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  for (const bool caller_throws : {true, false}) {
    std::atomic<int> entered{0};
    std::atomic<int> finished{0};
    std::atomic<bool> thrown{false};
    try {
      pool.for_each_thread([&] {
        entered.fetch_add(1);
        const bool on_caller = std::this_thread::get_id() == caller;
        if (on_caller == caller_throws && !thrown.exchange(true)) {
          throw std::runtime_error("warm failed");
        }
        // The other threads arrive late: the caller must wait for them.
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        finished.fetch_add(1);
      });
      ADD_FAILURE() << "for_each_thread swallowed the exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "warm failed");
    }
    EXPECT_EQ(entered.load(), pool.size())
        << "caller throws: " << caller_throws;
    EXPECT_EQ(finished.load(), pool.size() - 1)
        << "caller throws: " << caller_throws;

    std::atomic<std::int64_t> total{0};
    pool.parallel_for(0, 100, 1, [&](std::int64_t lo, std::int64_t hi) {
      total.fetch_add(hi - lo);
    });
    EXPECT_EQ(total.load(), 100);
    std::atomic<int> again{0};
    pool.for_each_thread([&] { again.fetch_add(1); });
    EXPECT_EQ(again.load(), pool.size());
  }
}

TEST(ThreadPoolTest, BadGrainThrows) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(0, 10, 0, [](std::int64_t, std::int64_t) {}),
               std::invalid_argument);
}

TEST(ThreadPoolConfigTest, SetNumThreadsControlsGlobalPool) {
  set_num_threads(3);
  EXPECT_EQ(num_threads(), 3);
  EXPECT_EQ(global_pool().size(), 3);
  set_num_threads(7);
  EXPECT_EQ(global_pool().size(), 7);
  std::vector<int> seen(1000, 0);
  parallel_for(0, 1000, 1, [&](std::int64_t lo, std::int64_t hi) {
    for (std::int64_t i = lo; i < hi; ++i) ++seen[static_cast<std::size_t>(i)];
  });
  EXPECT_EQ(std::accumulate(seen.begin(), seen.end(), 0), 1000);
  set_num_threads(1);  // restore the serial default for other suites
}

TEST(ThreadPoolConfigTest, ZeroRestoresDefault) {
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
  set_num_threads(1);
}

}  // namespace
}  // namespace flightnn::runtime

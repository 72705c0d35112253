#include "ayd/exec/thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <gtest/gtest.h>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace ayd::exec {
namespace {

TEST(ThreadPool, SubmitReturnsResult) {
  ThreadPool pool(2);
  auto fut = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(fut.get(), 42);
}

TEST(ThreadPool, SubmitVoidTask) {
  ThreadPool pool(2);
  std::atomic<bool> ran{false};
  pool.submit([&] { ran = true; }).get();
  EXPECT_TRUE(ran);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto fut = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW((void)fut.get(), std::runtime_error);
}

TEST(ThreadPool, SizeMatchesRequestedThreads) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.size(), 3u);
}

TEST(ThreadPool, DefaultUsesHardwareConcurrency) {
  ThreadPool pool;
  EXPECT_GE(pool.size(), 1u);
}

TEST(ThreadPool, DrainsQueueOnDestruction) {
  std::atomic<int> done{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 100; ++i) {
      (void)pool.submit([&done] { ++done; });
    }
  }  // destructor must wait for all 100
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(1000);
  parallel_for(pool, hits.size(), [&](std::size_t i) { ++hits[i]; });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroIterationsIsNoop) {
  ThreadPool pool(2);
  EXPECT_NO_THROW(parallel_for(pool, 0, [](std::size_t) { FAIL(); }));
}

TEST(ParallelFor, FirstExceptionRethrown) {
  ThreadPool pool(4);
  EXPECT_THROW(parallel_for(pool, 100,
                            [](std::size_t i) {
                              if (i % 10 == 3) {
                                throw std::runtime_error("task failed");
                              }
                            }),
               std::runtime_error);
}

TEST(ParallelFor, RethrownExceptionCarriesTaskMessage) {
  ThreadPool pool(4);
  try {
    parallel_for(pool, 64, [](std::size_t i) {
      if (i == 17) throw std::runtime_error("task 17 failed");
    });
    FAIL() << "parallel_for swallowed the task exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 17 failed");
  }
}

TEST(ParallelFor, PoolRemainsUsableAfterTaskException) {
  ThreadPool pool(2);
  EXPECT_THROW(parallel_for(pool, 8,
                            [](std::size_t) {
                              throw std::runtime_error("boom");
                            }),
               std::runtime_error);
  // The engine relies on this: one failed grid evaluation must not wedge
  // the pool for the next run.
  std::atomic<int> done{0};
  parallel_for(pool, 100, [&](std::size_t) { ++done; });
  EXPECT_EQ(done.load(), 100);
}

TEST(ParallelMap, ResultsInIndexOrder) {
  ThreadPool pool(4);
  const auto out =
      parallel_map(pool, 257, [](std::size_t i) { return i * i; });
  ASSERT_EQ(out.size(), 257u);
  for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelMap, WorksWithSingleThread) {
  ThreadPool pool(1);
  const auto out = parallel_map(pool, 10, [](std::size_t i) {
    return static_cast<double>(i) * 0.5;
  });
  EXPECT_DOUBLE_EQ(out[9], 4.5);
}

TEST(ParallelFor, ActuallyRunsConcurrently) {
  // With 2+ workers, two tasks that wait on each other can both make
  // progress only if they run on different threads.
  ThreadPool pool(2);
  std::atomic<int> stage{0};
  parallel_for(pool, 2, [&](std::size_t i) {
    if (i == 0) {
      ++stage;
      while (stage.load() < 2) std::this_thread::yield();
    } else {
      while (stage.load() < 1) std::this_thread::yield();
      ++stage;
    }
  });
  EXPECT_EQ(stage.load(), 2);
}

// A parallel_for called from inside one of the same pool's tasks runs
// inline on that worker. Queueing it instead would deadlock once every
// worker blocks on chunks that have no free worker left to run them;
// with one worker that is the very first nested call.
void expect_nested_parallel_for_completes(unsigned threads) {
  ThreadPool pool(threads);
  std::vector<std::atomic<int>> hits(8 * 64);
  parallel_for(pool, 8, [&](std::size_t outer) {
    parallel_for(pool, 64, [&](std::size_t inner) {
      ++hits[outer * 64 + inner];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, NestedCallOnSingleThreadPoolCompletes) {
  expect_nested_parallel_for_completes(1);
}

TEST(ParallelFor, NestedCallOnFourThreadPoolCompletes) {
  expect_nested_parallel_for_completes(4);
}

TEST(ParallelFor, NestedCallRunsAsOneChunkOnTheCallingWorker) {
  ThreadPool pool(2);
  parallel_for(pool, 4, [&](std::size_t) {
    const std::thread::id worker = std::this_thread::get_id();
    std::size_t calls = 0;
    parallel_for_chunks(pool, 100, [&](std::size_t begin, std::size_t end) {
      ++calls;
      EXPECT_EQ(begin, 0u);
      EXPECT_EQ(end, 100u);
      EXPECT_EQ(std::this_thread::get_id(), worker);
    });
    EXPECT_EQ(calls, 1u);
  });
}

TEST(ParallelFor, NestedExceptionReachesTheOuterCaller) {
  for (const unsigned threads : {1u, 4u}) {
    ThreadPool pool(threads);
    try {
      parallel_for(pool, 8, [&](std::size_t outer) {
        parallel_for(pool, 16, [&](std::size_t inner) {
          if (outer == 5 && inner == 11) {
            throw std::runtime_error("inner 5/11 failed");
          }
        });
      });
      FAIL() << "nested parallel_for swallowed the inner exception";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "inner 5/11 failed");
    }
    // And the pool is still usable afterwards.
    std::atomic<int> done{0};
    parallel_for(pool, 32, [&](std::size_t) { ++done; });
    EXPECT_EQ(done.load(), 32);
  }
}

TEST(ParallelFor, NullPoolRunsOneChunkOnTheCaller) {
  ThreadPool* none = nullptr;
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(none, 5, [&](std::size_t begin, std::size_t end) {
    EXPECT_EQ(std::this_thread::get_id(), caller);
    chunks.emplace_back(begin, end);
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], std::make_pair(std::size_t{0}, std::size_t{5}));
  parallel_for_chunks(none, 0, [](std::size_t, std::size_t) { FAIL(); });
}

TEST(ParallelFor, MinChunkSizesTheChunks) {
  ThreadPool pool(4);
  std::mutex mu;
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  parallel_for_chunks(
      pool, 100,
      [&](std::size_t begin, std::size_t end) {
        const std::lock_guard<std::mutex> lock(mu);
        chunks.emplace_back(begin, end);
      },
      30);
  std::sort(chunks.begin(), chunks.end());
  ASSERT_EQ(chunks.size(), 3u);
  std::size_t next = 0;
  for (const auto& [begin, end] : chunks) {
    EXPECT_EQ(begin, next);
    EXPECT_GE(end - begin, 30u);
    next = end;
  }
  EXPECT_EQ(next, 100u);
}

TEST(ParallelFor, MinChunkLeavingOneChunkRunsOnTheCaller) {
  ThreadPool pool(4);
  const std::thread::id caller = std::this_thread::get_id();
  std::size_t calls = 0;
  parallel_for_chunks(
      pool, 50,
      [&](std::size_t begin, std::size_t end) {
        ++calls;
        EXPECT_EQ(begin, 0u);
        EXPECT_EQ(end, 50u);
        EXPECT_EQ(std::this_thread::get_id(), caller);
      },
      30);
  EXPECT_EQ(calls, 1u);
}

TEST(ParallelForDescending, StartsWithTheHighestIndex) {
  ThreadPool one(1);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one}) {
    std::vector<std::size_t> order;  // one thread: no lock needed
    parallel_for_descending(pool, 6,
                            [&](std::size_t i) { order.push_back(i); });
    EXPECT_EQ(order, (std::vector<std::size_t>{5, 4, 3, 2, 1, 0}));
  }
}

TEST(ParallelForDescending, RethrowsTheLowestFailingIndexAfterRunningAll) {
  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &one, &four}) {
    std::vector<std::atomic<int>> hits(9);
    try {
      parallel_for_descending(pool, hits.size(), [&](std::size_t i) {
        ++hits[i];
        if (i == 3 || i == 7) {
          throw std::runtime_error("index " + std::to_string(i));
        }
      });
      FAIL() << "parallel_for_descending swallowed the exceptions";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "index 3");
    }
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelForDescending, NestedInsideTheSamePoolCompletes) {
  ThreadPool pool(2);
  std::vector<std::atomic<int>> hits(4 * 8);
  parallel_for_descending(&pool, 4, [&](std::size_t outer) {
    parallel_for_descending(&pool, 8, [&](std::size_t inner) {
      ++hits[outer * 8 + inner];
    });
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, OtherPoolFromAWorkerStillFansOut) {
  // Only the same pool runs inline: a worker of `outer` handing work to a
  // different pool still queues it there.
  ThreadPool outer(1);
  ThreadPool inner(2);
  std::atomic<int> stage{0};
  outer.submit([&] {
    parallel_for(inner, 2, [&](std::size_t i) {
      if (i == 0) {
        ++stage;
        while (stage.load() < 2) std::this_thread::yield();
      } else {
        while (stage.load() < 1) std::this_thread::yield();
        ++stage;
      }
    });
  }).get();
  EXPECT_EQ(stage.load(), 2);
}

TEST(ThreadPool, ManySmallTasksStress) {
  ThreadPool pool(4);
  std::atomic<long> total{0};
  parallel_for(pool, 20000, [&](std::size_t i) {
    total += static_cast<long>(i % 7);
  });
  long expected = 0;
  for (std::size_t i = 0; i < 20000; ++i) expected += static_cast<long>(i % 7);
  EXPECT_EQ(total.load(), expected);
}

}  // namespace
}  // namespace ayd::exec

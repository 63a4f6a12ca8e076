#include "common/executor.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <functional>
#include <stdexcept>
#include <vector>

#include "common/rng.hpp"

namespace gapart {
namespace {

TEST(Executor, ParallelForVisitsEveryIndexExactlyOnce) {
  for (int threads : {1, 2, 4, 8}) {
    Executor pool(threads);
    EXPECT_EQ(pool.num_threads(), threads);
    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    pool.parallel_for(n, [&](std::size_t i) { ++visits[i]; });
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(visits[i].load(), 1) << "index " << i << " threads " << threads;
    }
  }
}

TEST(Executor, ParallelForHandlesEmptyAndTinyRanges) {
  Executor pool(4);
  std::atomic<int> count{0};
  pool.parallel_for(0, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 0);
  pool.parallel_for(1, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 1);
  pool.parallel_for(3, [&](std::size_t) { ++count; }, /*grain=*/100);
  EXPECT_EQ(count.load(), 4);
}

TEST(Executor, ParallelForPropagatesExceptions) {
  Executor pool(4);
  EXPECT_THROW(
      pool.parallel_for(100,
                        [](std::size_t i) {
                          if (i == 57) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
  // The pool stays usable afterwards.
  std::atomic<int> count{0};
  pool.parallel_for(10, [&](std::size_t) { ++count; });
  EXPECT_EQ(count.load(), 10);
}

TEST(Executor, NestedParallelForCompletes) {
  Executor pool(3);
  std::atomic<int> total{0};
  // Outer tasks issue inner loops on the same pool; caller participation
  // guarantees progress even with every worker busy.
  pool.parallel_for(8, [&](std::size_t) {
    pool.parallel_for(16, [&](std::size_t) { ++total; });
  });
  EXPECT_EQ(total.load(), 8 * 16);
}

TEST(Executor, RunTasksRunsEachClosureOnce) {
  Executor pool(4);
  std::vector<std::atomic<int>> ran(10);
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 10; ++i) {
    tasks.push_back([&ran, i] { ++ran[static_cast<std::size_t>(i)]; });
  }
  pool.run_tasks(tasks);
  for (auto& r : ran) EXPECT_EQ(r.load(), 1);
}

TEST(Executor, SubmitAndWaitDrains) {
  Executor pool(2);
  std::atomic<int> count{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&count] { ++count; });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 50);
  // wait() with an empty queue returns immediately.
  pool.wait();
}

TEST(Executor, SingleThreadPoolRunsInline) {
  Executor pool(1);
  EXPECT_EQ(pool.num_threads(), 1);
  std::vector<int> order;
  pool.parallel_for(5, [&](std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(Executor, HardwareThreadsPositive) {
  EXPECT_GE(Executor::hardware_threads(), 1);
}

TEST(Executor, PendingGaugeTracksSubmittedWork) {
  Executor pool(1);  // no workers: submitted tasks sit queued until wait()
  EXPECT_EQ(pool.pending(), 0);
  int ran = 0;
  pool.submit([&ran] { ++ran; });
  pool.submit([&ran] { ++ran; });
  EXPECT_EQ(pool.pending(), 2);
  pool.wait();
  EXPECT_EQ(pool.pending(), 0);
  EXPECT_EQ(ran, 2);
}

TEST(RngFork, PureFunctionOfStateAndStream) {
  Rng rng(42);
  rng.next_u64();  // move off the seed state
  Rng a = rng.fork(7);
  Rng b = rng.fork(7);
  EXPECT_EQ(a.next_u64(), b.next_u64());  // same stream -> same sequence
  // fork() must not advance the parent: the parent's next draw is unchanged.
  Rng witness(42);
  witness.next_u64();
  EXPECT_EQ(rng.next_u64(), witness.next_u64());
}

TEST(RngFork, DistinctStreamsDecorrelated) {
  Rng rng(42);
  std::vector<std::uint64_t> firsts;
  for (std::uint64_t s = 0; s < 64; ++s) {
    firsts.push_back(rng.fork(s).next_u64());
  }
  // All first draws distinct (a collision here would be a 1-in-2^58 fluke).
  std::sort(firsts.begin(), firsts.end());
  EXPECT_EQ(std::adjacent_find(firsts.begin(), firsts.end()), firsts.end());
}

TEST(RngFork, IndependentOfCallOrder) {
  Rng a(9);
  Rng b(9);
  const std::uint64_t a3 = a.fork(3).next_u64();
  const std::uint64_t a5 = a.fork(5).next_u64();
  const std::uint64_t b5 = b.fork(5).next_u64();
  const std::uint64_t b3 = b.fork(3).next_u64();
  EXPECT_EQ(a3, b3);
  EXPECT_EQ(a5, b5);
}

}  // namespace
}  // namespace gapart

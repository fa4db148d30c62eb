// Unit tests for the parallel utilities: thread pool, parallel_for,
// deterministic parallel_reduce.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace pandarus::parallel {
namespace {

TEST(ThreadPool, RunsSubmittedTasks) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::atomic<int> counter{0};
  std::vector<std::future<void>> futures;
  for (int i = 0; i < 100; ++i) {
    futures.push_back(pool.submit([&] { ++counter; }));
  }
  for (auto& f : futures) f.get();
  EXPECT_EQ(counter.load(), 100);
}

TEST(ThreadPool, SubmitReturnsValue) {
  ThreadPool pool(2);
  auto f = pool.submit([] { return 6 * 7; });
  EXPECT_EQ(f.get(), 42);
}

TEST(ThreadPool, ExceptionsPropagateThroughFuture) {
  ThreadPool pool(2);
  auto f = pool.submit([]() -> int { throw std::runtime_error("boom"); });
  EXPECT_THROW(f.get(), std::runtime_error);
}

TEST(ThreadPool, WaitIdleDrainsQueue) {
  ThreadPool pool(3);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) {
    pool.submit([&] { ++counter; });
  }
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

TEST(ThreadPool, DestructorDrainsOutstandingWork) {
  std::atomic<int> counter{0};
  {
    ThreadPool pool(2);
    for (int i = 0; i < 20; ++i) {
      pool.submit([&] { ++counter; });
    }
  }
  EXPECT_EQ(counter.load(), 20);
}

TEST(ParallelFor, CoversRangeExactlyOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10'000);
  parallel_for_chunks(pool, hits.size(), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) ++hits[i];
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, EmptyRangeIsNoop) {
  ThreadPool pool(2);
  bool called = false;
  parallel_for_chunks(pool, 0, [&](std::size_t, std::size_t) {
    called = true;
  });
  EXPECT_FALSE(called);
}

TEST(ParallelReduce, MatchesSerialSum) {
  ThreadPool pool(4);
  const std::size_t n = 100'000;
  struct Sum {
    std::uint64_t value = 0;
  };
  const Sum total = parallel_reduce<Sum>(
      pool, n, [](Sum& acc, std::size_t i) { acc.value += i; },
      [](Sum& into, Sum&& other) { into.value += other.value; });
  EXPECT_EQ(total.value, n * (n - 1) / 2);
}

TEST(ParallelReduce, DeterministicCombineOrder) {
  // Combining strings is order-sensitive; the reduction must combine in
  // chunk order regardless of completion order.
  ThreadPool pool(4);
  struct Cat {
    std::string value;
  };
  auto run = [&] {
    return parallel_reduce<Cat>(
               pool, 2048,
               [](Cat& acc, std::size_t i) {
                 if (i % 256 == 0) acc.value += std::to_string(i) + ",";
               },
               [](Cat& into, Cat&& other) { into.value += other.value; },
               /*min_chunk=*/64)
        .value;
  };
  const std::string first = run();
  for (int rep = 0; rep < 5; ++rep) EXPECT_EQ(run(), first);
  EXPECT_EQ(first, "0,256,512,768,1024,1280,1536,1792,");
}

}  // namespace
}  // namespace pandarus::parallel

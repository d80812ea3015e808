// The parallel runtime's contracts: every index runs exactly once, the
// lowest-index exception is the one rethrown, nested submission does not
// deadlock, run_beside() keeps its foreground on the caller and never
// unwinds before its background finished, and parallel_for /
// parallel_reduce produce bit-identical results on every worker count. The stress tests double as the TSan
// workload for the pool internals.
#include "util/thread_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "util/parallel_for.hpp"

namespace cim::util {
namespace {

TEST(ThreadPool, RunInvokesEveryIndexExactlyOnce) {
  ThreadPool pool(4);
  constexpr std::size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.run(kCount, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < kCount; ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  EXPECT_GE(pool.tasks_executed(), kCount);
}

TEST(ThreadPool, ZeroWorkersRunsInlineOnCaller) {
  ThreadPool pool(0);
  EXPECT_EQ(pool.width(), 0U);
  EXPECT_EQ(pool.threads_created(), 0U);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen(16);
  pool.run(seen.size(),
           [&](std::size_t i) { seen[i] = std::this_thread::get_id(); });
  for (const auto& id : seen) EXPECT_EQ(id, caller);
}

TEST(ThreadPool, CountZeroIsANoOp) {
  ThreadPool pool(2);
  bool called = false;
  pool.run(0, [&](std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, LowestIndexExceptionWinsAndAllTasksStillRun) {
  for (const std::size_t width : {1U, 2U, 8U}) {
    ThreadPool pool(width);
    std::atomic<std::size_t> executed{0};
    const auto body = [&](std::size_t i) {
      executed.fetch_add(1, std::memory_order_relaxed);
      if (i == 60 || i == 17 || i == 3) {
        throw std::runtime_error(std::to_string(i));
      }
    };
    try {
      pool.run(100, body);
      FAIL() << "run() swallowed the task exceptions (width " << width << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "3") << "width " << width;
    }
    // The failing batch still executed every task: an exception cancels
    // nothing, it is only reported after the batch drains.
    EXPECT_EQ(executed.load(), 100U) << "width " << width;
  }
}

TEST(ThreadPool, NestedRunFromWorkersDoesNotDeadlock) {
  ThreadPool pool(2);
  std::atomic<std::size_t> inner_total{0};
  pool.run(4, [&](std::size_t) {
    pool.run(8, [&](std::size_t) {
      inner_total.fetch_add(1, std::memory_order_relaxed);
    });
  });
  EXPECT_EQ(inner_total.load(), 32U);
}

TEST(ThreadPool, ThreadsCreatedNeverGrowsAfterConstruction) {
  ThreadPool pool(3);
  EXPECT_EQ(pool.threads_created(), 3U);
  std::atomic<std::size_t> total{0};
  for (int batch = 0; batch < 200; ++batch) {
    pool.run(7, [&](std::size_t) {
      total.fetch_add(1, std::memory_order_relaxed);
    });
  }
  EXPECT_EQ(total.load(), 200U * 7U);
  EXPECT_EQ(pool.threads_created(), 3U);
}

// TSan stress: many small batches with contended counters, plus enough
// imbalance that workers steal from each other.
TEST(ThreadPool, StressManySmallImbalancedBatches) {
  ThreadPool pool(4);
  std::atomic<std::uint64_t> sum{0};
  for (int batch = 0; batch < 500; ++batch) {
    pool.run(9, [&](std::size_t i) {
      std::uint64_t local = 0;
      // Task 0 is much heavier than the rest → guarantees idle workers.
      const std::uint64_t spins = i == 0 ? 2000 : 10;
      for (std::uint64_t s = 0; s < spins; ++s) local += s * s + i;
      sum.fetch_add(local, std::memory_order_relaxed);
    });
  }
  EXPECT_GT(sum.load(), 0U);
  EXPECT_GE(pool.tasks_executed(), 500U * 9U);
}

TEST(ThreadPool, RunBesideForegroundOnCallerBackgroundOnWorkerZero) {
  for (const std::size_t width : {0U, 1U, 2U, 4U}) {
    ThreadPool pool(width);
    const std::thread::id caller = std::this_thread::get_id();
    std::thread::id foreground_thread;
    std::size_t foreground_worker = 0;
    std::optional<std::size_t> background_worker;
    pool.run_beside(
        [&] { background_worker = ThreadPool::current_worker_index(); },
        [&] {
          foreground_thread = std::this_thread::get_id();
          foreground_worker = ThreadPool::current_worker_index();
        });
    EXPECT_EQ(foreground_thread, caller) << "width " << width;
    EXPECT_EQ(foreground_worker, ThreadPool::kNotAWorker) << "width " << width;
    // Background tasks run on worker 0 or, if it had not started them
    // yet, on the caller — never on another worker.
    ASSERT_TRUE(background_worker.has_value()) << "width " << width;
    EXPECT_TRUE(*background_worker == 0 ||
                *background_worker == ThreadPool::kNotAWorker)
        << "width " << width << ": ran on worker " << *background_worker;
  }
}

TEST(ThreadPool, RunBesideWithoutWorkersRunsForegroundThenBackground) {
  ThreadPool pool(0);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::string> order;
  std::vector<std::thread::id> threads;
  pool.run_beside(
      [&] {
        order.emplace_back("background");
        threads.push_back(std::this_thread::get_id());
      },
      [&] {
        order.emplace_back("foreground");
        threads.push_back(std::this_thread::get_id());
      });
  EXPECT_EQ(order, (std::vector<std::string>{"foreground", "background"}));
  for (const auto& id : threads) EXPECT_EQ(id, caller);
  EXPECT_EQ(pool.threads_created(), 0U);
}

TEST(ThreadPool, RunBesideRethrowsBackgroundErrorAfterForegroundReturns) {
  for (const std::size_t width : {0U, 1U, 2U}) {
    ThreadPool pool(width);
    std::atomic<bool> foreground_done{false};
    try {
      pool.run_beside(
          [] { throw std::runtime_error("background"); },
          [&] {
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
            foreground_done.store(true);
          });
      FAIL() << "run_beside() swallowed the background error (width "
             << width << ")";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "background") << "width " << width;
      EXPECT_TRUE(foreground_done.load()) << "width " << width;
    }
  }
}

TEST(ThreadPool, RunBesideThrowingForegroundWaitsForBackground) {
  for (const std::size_t width : {0U, 1U, 2U}) {
    for (const bool background_throws : {false, true}) {
      ThreadPool pool(width);
      // The background writes into this frame: it must be finished before
      // the foreground's exception leaves run_beside().
      std::vector<int> written;
      try {
        pool.run_beside(
            [&] {
              std::this_thread::sleep_for(std::chrono::milliseconds(5));
              written.assign(1000, 7);
              if (background_throws) throw std::runtime_error("background");
            },
            [] { throw std::runtime_error("foreground"); });
        FAIL() << "run_beside() swallowed the foreground error";
      } catch (const std::runtime_error& e) {
        // The foreground's error wins, as in a serial foreground-first run.
        EXPECT_STREQ(e.what(), "foreground") << "width " << width;
        EXPECT_EQ(written.size(), 1000U) << "width " << width;
      }
    }
  }
}

TEST(ThreadPool, RunBesideNestedRunDoesNotDeadlock) {
  for (const std::size_t width : {1U, 2U}) {
    ThreadPool pool(width);
    for (int round = 0; round < 50; ++round) {
      std::atomic<std::size_t> background_total{0};
      std::atomic<std::size_t> foreground_total{0};
      pool.run_beside(
          [&] {
            pool.run(16, [&](std::size_t) {
              background_total.fetch_add(1, std::memory_order_relaxed);
            });
          },
          [&] {
            pool.run(16, [&](std::size_t) {
              foreground_total.fetch_add(1, std::memory_order_relaxed);
            });
          });
      EXPECT_EQ(background_total.load(), 16U) << "width " << width;
      EXPECT_EQ(foreground_total.load(), 16U) << "width " << width;
    }
  }
}

TEST(ThreadPool, ParseWidth) {
  EXPECT_EQ(ThreadPool::parse_width(nullptr), 0U);
  EXPECT_EQ(ThreadPool::parse_width(""), 0U);
  EXPECT_EQ(ThreadPool::parse_width("abc"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("-3"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("0"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("8x"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("5"), 5U);
  EXPECT_EQ(ThreadPool::parse_width("64"), 64U);
  // Over the ceiling or overflowing: fall back to the default width
  // instead of asking the pool for billions of threads.
  EXPECT_EQ(ThreadPool::parse_width("1024"), ThreadPool::kMaxWidth);
  EXPECT_EQ(ThreadPool::parse_width("1025"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("9223372036854775807"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("99999999999999999999"), 0U);
  EXPECT_EQ(ThreadPool::parse_width("-99999999999999999999"), 0U);
}

TEST(ParallelFor, ChunkCountIsPure) {
  EXPECT_EQ(parallel_chunk_count(0, 16), 0U);
  EXPECT_EQ(parallel_chunk_count(1, 16), 1U);
  EXPECT_EQ(parallel_chunk_count(16, 16), 1U);
  EXPECT_EQ(parallel_chunk_count(17, 16), 2U);
  EXPECT_EQ(parallel_chunk_count(160, 16), 10U);
  EXPECT_EQ(parallel_chunk_count(5, 0), 5U);  // grain 0 clamps to 1
}

TEST(ParallelFor, CoversEveryIndexWithDisjointWrites) {
  ThreadPool pool(4);
  constexpr std::size_t kN = 1234;
  std::vector<std::size_t> out(kN, 0);
  parallel_for(pool, kN, 37, [&](std::size_t i) { out[i] = i * i; });
  for (std::size_t i = 0; i < kN; ++i) EXPECT_EQ(out[i], i * i);
}

TEST(ParallelFor, ChunkBoundariesIndependentOfWidth) {
  constexpr std::size_t kN = 1000;
  constexpr std::size_t kGrain = 64;
  const auto boundaries = [&](ThreadPool& pool) {
    std::vector<std::pair<std::size_t, std::size_t>> chunks(
        parallel_chunk_count(kN, kGrain));
    parallel_for_chunks(pool, kN, kGrain,
                        [&](std::size_t begin, std::size_t end) {
                          chunks[begin / kGrain] = {begin, end};
                        });
    return chunks;
  };
  ThreadPool one(1), two(2), eight(8);
  const auto a = boundaries(one);
  const auto b = boundaries(two);
  const auto c = boundaries(eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

// The keystone determinism test: a floating-point sum — a non-associative
// reduction — must come out bit-identical on 1, 2 and 8 workers because
// chunking and fold order are fixed by index, not by scheduling.
TEST(ParallelReduce, FloatingPointSumBitIdenticalAcrossWidths) {
  constexpr std::size_t kN = 10000;
  const auto reduce_on = [&](ThreadPool& pool) {
    return parallel_reduce(
        pool, kN, 113, 0.0,
        [](std::size_t begin, std::size_t end) {
          double s = 0.0;
          for (std::size_t i = begin; i < end; ++i) {
            s += std::sin(static_cast<double>(i)) /
                 (1.0 + static_cast<double>(i % 97));
          }
          return s;
        },
        [](double acc, double chunk) { return acc + chunk; });
  };
  ThreadPool one(1), two(2), eight(8);
  const double a = reduce_on(one);
  const double b = reduce_on(two);
  const double c = reduce_on(eight);
  // Bitwise, not approximate: the contract is exact reproducibility.
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

// Same idea with an order-sensitive hash chain: any reordering of the
// fold would change the result.
TEST(ParallelReduce, HashChainIdenticalAcrossWidths) {
  constexpr std::size_t kN = 4096;
  const auto reduce_on = [&](ThreadPool& pool) {
    return parallel_reduce(
        pool, kN, 55, std::uint64_t{0xcbf29ce484222325ULL},
        [](std::size_t begin, std::size_t end) {
          std::uint64_t h = 0;
          for (std::size_t i = begin; i < end; ++i) {
            h = (h ^ (i * 0x9e3779b97f4a7c15ULL)) * 0x100000001b3ULL;
          }
          return h;
        },
        [](std::uint64_t acc, std::uint64_t chunk) {
          return (acc ^ chunk) * 0x100000001b3ULL;
        });
  };
  ThreadPool one(1), two(2), eight(8);
  const std::uint64_t a = reduce_on(one);
  const std::uint64_t b = reduce_on(two);
  const std::uint64_t c = reduce_on(eight);
  EXPECT_EQ(a, b);
  EXPECT_EQ(b, c);
}

TEST(ParallelReduce, EmptyAndSingleChunkInline) {
  ThreadPool pool(2);
  const auto sum = [](std::size_t begin, std::size_t end) {
    std::uint64_t s = 0;
    for (std::size_t i = begin; i < end; ++i) s += i;
    return s;
  };
  const auto add = [](std::uint64_t a, std::uint64_t b) { return a + b; };
  EXPECT_EQ(parallel_reduce(pool, 0, 8, std::uint64_t{7}, sum, add), 7U);
  EXPECT_EQ(parallel_reduce(pool, 5, 8, std::uint64_t{0}, sum, add), 10U);
}

}  // namespace
}  // namespace cim::util

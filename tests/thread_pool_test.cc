#include "util/thread_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <thread>
#include <vector>

namespace coverpack {
namespace {

TEST(ThreadPoolTest, NumShardsDependsOnlyOnRangeAndGrain) {
  EXPECT_EQ(ThreadPool::NumShards(0, 0, 16), 0u);
  EXPECT_EQ(ThreadPool::NumShards(0, 1, 16), 1u);
  EXPECT_EQ(ThreadPool::NumShards(0, 16, 16), 1u);
  EXPECT_EQ(ThreadPool::NumShards(0, 17, 16), 2u);
  EXPECT_EQ(ThreadPool::NumShards(5, 37, 8), 4u);
  // Zero grain is clamped to 1 instead of dividing by zero.
  EXPECT_EQ(ThreadPool::NumShards(0, 3, 0), 3u);
}

TEST(ThreadPoolTest, ParallelForVisitsEveryIndexExactlyOnce) {
  for (unsigned threads : {1u, 2u, 8u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<uint32_t>> hits(1000);
    pool.ParallelFor(0, hits.size(), 7, [&](size_t i) { hits[i].fetch_add(1); });
    for (size_t i = 0; i < hits.size(); ++i) {
      ASSERT_EQ(hits[i].load(), 1u) << "index " << i << " at " << threads << " threads";
    }
  }
}

TEST(ThreadPoolTest, ShardDecompositionIsThreadCountInvariant) {
  constexpr size_t kBegin = 3, kEnd = 1003, kGrain = 64;
  const size_t shards = ThreadPool::NumShards(kBegin, kEnd, kGrain);
  for (unsigned threads : {1u, 2u, 5u}) {
    ThreadPool pool(threads);
    std::vector<std::pair<size_t, size_t>> ranges(shards, {0, 0});
    pool.ParallelForShards(kBegin, kEnd, kGrain,
                           [&](size_t b, size_t e, size_t shard) { ranges[shard] = {b, e}; });
    // Shards tile [begin, end) contiguously in index order, independent of
    // which thread ran them.
    size_t cursor = kBegin;
    for (size_t s = 0; s < shards; ++s) {
      EXPECT_EQ(ranges[s].first, cursor);
      EXPECT_EQ(ranges[s].second, s + 1 == shards ? kEnd : cursor + kGrain);
      cursor = ranges[s].second;
    }
    EXPECT_EQ(cursor, kEnd);
  }
}

TEST(ThreadPoolTest, PerShardBuffersMergedInOrderMatchSerial) {
  // The call-site pattern the simulator relies on: shard-private buffers
  // concatenated in ascending shard order must equal the serial result.
  constexpr size_t kN = 5000, kGrain = 129;
  std::vector<uint64_t> serial;
  for (size_t i = 0; i < kN; ++i) serial.push_back(i * i);

  for (unsigned threads : {2u, 4u, 16u}) {
    ThreadPool pool(threads);
    const size_t shards = ThreadPool::NumShards(0, kN, kGrain);
    std::vector<std::vector<uint64_t>> buffers(shards);
    pool.ParallelForShards(0, kN, kGrain, [&](size_t b, size_t e, size_t shard) {
      for (size_t i = b; i < e; ++i) buffers[shard].push_back(i * i);
    });
    std::vector<uint64_t> merged;
    for (const auto& buffer : buffers) merged.insert(merged.end(), buffer.begin(), buffer.end());
    EXPECT_EQ(merged, serial) << "at " << threads << " threads";
  }
}

TEST(ThreadPoolTest, ExceptionPropagatesToSubmitter) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 100, 1,
                                [](size_t i) {
                                  if (i == 37) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a poisoned batch and keeps working.
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, 100, 1, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
}

TEST(ThreadPoolTest, ExceptionPropagatesOnInlineSerialPath) {
  ThreadPool pool(1);
  EXPECT_THROW(pool.ParallelFor(0, 10, 1,
                                [](size_t i) {
                                  if (i == 3) throw std::logic_error("serial boom");
                                }),
               std::logic_error);
}

TEST(ThreadPoolTest, NestedParallelForDoesNotDeadlock) {
  for (unsigned threads : {1u, 2u, 4u}) {
    ThreadPool pool(threads);
    std::vector<std::atomic<uint64_t>> outer_sums(8);
    pool.ParallelFor(0, outer_sums.size(), 1, [&](size_t outer) {
      pool.ParallelFor(0, 32, 4, [&](size_t inner) { outer_sums[outer].fetch_add(inner); });
    });
    for (size_t outer = 0; outer < outer_sums.size(); ++outer) {
      EXPECT_EQ(outer_sums[outer].load(), 496u) << "at " << threads << " threads";
    }
  }
}

TEST(ThreadPoolTest, DeepRecursiveSplittingCompletes) {
  // The recursive Cluster subquery shape: each level fans out through the
  // pool again. With one worker this deadlocks unless submitters drain
  // their own batches.
  ThreadPool pool(2);
  std::function<uint64_t(size_t, size_t)> recursive_sum = [&](size_t b, size_t e) -> uint64_t {
    if (e - b <= 4) {
      uint64_t sum = 0;
      for (size_t i = b; i < e; ++i) sum += i;
      return sum;
    }
    size_t half = (e - b) / 2;
    std::atomic<uint64_t> total{0};
    pool.ParallelForShards(b, e, half, [&](size_t sb, size_t se, size_t) {
      total.fetch_add(recursive_sum(sb, se));
    });
    return total.load();
  };
  EXPECT_EQ(recursive_sum(0, 1024), 1024u * 1023u / 2);
}

TEST(ThreadPoolTest, ExceptionEscapesNestedParallelFor) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.ParallelFor(0, 4, 1,
                                [&](size_t outer) {
                                  pool.ParallelFor(0, 4, 1, [&](size_t inner) {
                                    if (outer == 2 && inner == 1) {
                                      throw std::runtime_error("nested boom");
                                    }
                                  });
                                }),
               std::runtime_error);
}

TEST(ThreadPoolTest, OversubscribedPoolHandlesManySmallShards) {
  // More threads than cores, far more shards than threads.
  ThreadPool pool(16);
  std::atomic<uint64_t> sum{0};
  pool.ParallelFor(0, 100000, 3, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 100000ull * 99999ull / 2);
}

TEST(ThreadPoolTest, EmptyRangeIsANoOp) {
  ThreadPool pool(4);
  std::atomic<uint32_t> calls{0};
  pool.ParallelFor(5, 5, 1, [&](size_t) { calls.fetch_add(1); });
  pool.ParallelForShards(7, 7, 16, [&](size_t, size_t, size_t) { calls.fetch_add(1); });
  EXPECT_EQ(calls.load(), 0u);
}

TEST(ThreadPoolTest, TeardownWithPendingSubmitsJoinsCleanly) {
  std::atomic<uint32_t> ran{0};
  {
    ThreadPool pool(4);
    for (int i = 0; i < 64; ++i) {
      pool.Submit([&ran] {
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
        ran.fetch_add(1);
      });
    }
    // Destructor runs with most closures still queued: claimed ones finish,
    // unclaimed ones are discarded, and nothing hangs or crashes.
  }
  EXPECT_LE(ran.load(), 64u);
}

TEST(ThreadPoolTest, SubmitRunsInlineWithoutWorkers) {
  ThreadPool pool(1);
  bool ran = false;
  pool.Submit([&] { ran = true; });
  EXPECT_TRUE(ran);
}

TEST(ThreadPoolTest, GlobalPoolResizesOnDemand) {
  const unsigned before = ThreadPool::GlobalThreads();
  ThreadPool::SetGlobalThreads(3);
  EXPECT_EQ(ThreadPool::GlobalThreads(), 3u);
  EXPECT_EQ(ThreadPool::Global().num_threads(), 3u);
  std::atomic<uint64_t> sum{0};
  ThreadPool::Global().ParallelFor(0, 100, 8, [&](size_t i) { sum.fetch_add(i); });
  EXPECT_EQ(sum.load(), 4950u);
  ThreadPool::SetGlobalThreads(before);
  EXPECT_EQ(ThreadPool::GlobalThreads(), before);
}

}  // namespace
}  // namespace coverpack

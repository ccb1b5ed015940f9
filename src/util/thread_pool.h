/// \file thread_pool.h
/// \brief Fixed-size thread pool with a deterministic ParallelFor primitive.
///
/// The MPC model this repo simulates is embarrassingly parallel across
/// servers within a round, so real threads can mirror the model exactly —
/// *provided* the parallel path is bit-identical to the serial one. The
/// pool is designed around that requirement:
///
///  * Work is split into **shards**: contiguous index ranges whose
///    decomposition depends only on (begin, end, grain) — never on the
///    thread count. Call sites accumulate into per-shard buffers and merge
///    them in ascending shard order, so any thread count (including 1)
///    produces byte-identical results.
///  * `ParallelFor` is **re-entrant**: a worker running a task may submit a
///    nested ParallelFor (the recursive `Cluster` subquery shape in
///    src/core/acyclic_join.cc). The calling thread always participates in
///    its own batch and every batch's creator keeps claiming that batch's
///    shards, so nested submission cannot deadlock even with one worker.
///  * Exceptions thrown by shard functions are captured (first one wins),
///    the remaining shards of the batch are still accounted for, and the
///    exception is rethrown on the calling thread once the batch drains.
///
/// A pool of `num_threads` N provides N-way concurrency: N-1 background
/// workers plus the calling thread. `ThreadPool(1)` spawns no workers and
/// runs everything inline — the serial reference path.

#ifndef COVERPACK_UTIL_THREAD_POOL_H_
#define COVERPACK_UTIL_THREAD_POOL_H_

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {

class ThreadPool {
 public:
  /// Shard function: fn(shard_begin, shard_end, shard_index). Shard index
  /// is dense in [0, NumShards(...)), in ascending range order.
  using ShardFn = std::function<void(size_t, size_t, size_t)>;

  /// \param num_threads total concurrency including the calling thread;
  /// clamped to >= 1. `ThreadPool(4)` spawns 3 workers. Under glibc it also
  /// pins the process's mmap threshold at 4 MiB, so that peak memory does
  /// not depend on which thread ran which task (see thread_pool.cc).
  explicit ThreadPool(unsigned num_threads);

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Joins the workers. Tasks already claimed finish; queued batches are
  /// drained by their (blocked) submitters, and fire-and-forget Submit
  /// closures not yet started are discarded.
  ~ThreadPool();

  unsigned num_threads() const { return num_threads_; }

  /// Number of shards ParallelForShards splits [begin, end) into: depends
  /// only on the range and grain, never on the thread count. Call sites
  /// use it to size per-shard accumulation buffers.
  static size_t NumShards(size_t begin, size_t end, size_t grain);

  /// Runs fn(shard_begin, shard_end, shard_index) for every grain-sized
  /// contiguous shard of [begin, end); the final shard is clamped to `end`,
  /// so the shards tile the range exactly. Blocks until every shard completed;
  /// rethrows the first exception any shard threw. Safe to call from
  /// inside a worker task (nested parallelism).
  void ParallelForShards(size_t begin, size_t end, size_t grain, const ShardFn& fn);

  /// Element-wise sugar: runs fn(i) for every i in [begin, end), sharded
  /// by `grain`. Same blocking/exception/determinism contract.
  void ParallelFor(size_t begin, size_t end, size_t grain,
                   const std::function<void(size_t)>& fn);

  /// Fire-and-forget submission; runs on some worker (inline when the pool
  /// has no workers). No completion signal — used for teardown testing and
  /// background work whose result is observed elsewhere.
  void Submit(std::function<void()> fn);

  // ---- Process-global pool ------------------------------------------------
  // The simulator's hot paths pull their pool from here; the bench driver
  // sizes it once at startup from --threads.

  /// The global pool, created on first use with GlobalThreads() threads.
  static ThreadPool& Global();

  /// Sets the global pool size. Rebuilds the pool if it already exists
  /// with a different size. Not safe to call concurrently with work
  /// running on the global pool.
  static void SetGlobalThreads(unsigned num_threads);

  /// The size the global pool has (or will be created with): the last
  /// SetGlobalThreads value, defaulting to std::thread::hardware_concurrency.
  static unsigned GlobalThreads();

 private:
  /// One ParallelForShards invocation: shards are claimed off `next` by
  /// every participating thread; `completed` reaching `shards` releases
  /// the submitter. Shared-ptr-owned because stale queue entries can
  /// outlive the submitting frame.
  struct Batch {
    size_t begin = 0;
    size_t end = 0;
    size_t grain = 1;
    size_t shards = 0;
    const ShardFn* fn = nullptr;
    std::atomic<size_t> next{0};
    std::atomic<size_t> completed{0};
    Mutex done_mutex;
    std::condition_variable_any done_cv;
    Mutex error_mutex;
    std::exception_ptr error CP_GUARDED_BY(error_mutex);
  };

  /// A queue entry: either a batch announcement or a Submit closure.
  struct QueueEntry {
    std::shared_ptr<Batch> batch;
    std::function<void()> simple;
  };

  void WorkerLoop();

  /// Claims and runs shards of `batch` until none remain. Returns after
  /// the local claims are done (other threads may still be running theirs).
  void DrainBatch(Batch* batch);

  /// Runs one claimed shard, capturing exceptions into the batch.
  void RunShard(Batch* batch, size_t shard);

  unsigned num_threads_;
  Mutex queue_mutex_;
  std::condition_variable_any queue_cv_;
  std::deque<QueueEntry> queue_ CP_GUARDED_BY(queue_mutex_);
  bool stopping_ CP_GUARDED_BY(queue_mutex_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace coverpack

#endif  // COVERPACK_UTIL_THREAD_POOL_H_

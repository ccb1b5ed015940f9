#include "util/thread_pool.h"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace coverpack {

namespace {

/// The process-global pool registry: the pool pointer and requested size
/// under one annotated mutex. The pool itself is leaked on purpose:
/// joining workers during static destruction is a well-known shutdown
/// hazard, and the pool owns no resources the OS does not reclaim.
struct GlobalPoolState {
  Mutex mutex;
  ThreadPool* pool CP_GUARDED_BY(mutex) = nullptr;
  unsigned threads CP_GUARDED_BY(mutex) = 0;  // 0 = not set; fall back to hw concurrency
};

GlobalPoolState& GlobalPool() {
  static GlobalPoolState state;
  return state;
}

/// Pins glibc's mmap threshold at 4 MiB; the trim threshold then stays at
/// its 128 KiB default. Left dynamic, glibc raises both each time a mapped
/// block is freed, up to 32 and 64 MiB, and from then on every thread's
/// malloc arena may keep tens of MiB of freed join output. How much each
/// arena keeps depends on which pool thread ran which task, so peak memory
/// would vary from run to run by tens of MiB. Pinned, a block of 4 MiB or
/// more goes back to the system when freed, and the peak follows live
/// memory.
void PinMallocThresholds() {
#if defined(__GLIBC__)
  mallopt(M_MMAP_THRESHOLD, 4 << 20);
#endif
}

unsigned DefaultThreads() {
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace

ThreadPool::ThreadPool(unsigned num_threads)
    : num_threads_(std::max(1u, num_threads)) {
  PinMallocThresholds();
  workers_.reserve(num_threads_ - 1);
  for (unsigned i = 0; i + 1 < num_threads_; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    MutexLock lock(queue_mutex_);
    stopping_ = true;
    // Unstarted Submit closures are discarded; queued batch announcements
    // are safe to drop because every batch's submitter drains it itself.
    queue_.clear();
  }
  queue_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

size_t ThreadPool::NumShards(size_t begin, size_t end, size_t grain) {
  if (end <= begin) return 0;
  grain = std::max<size_t>(1, grain);
  return (end - begin + grain - 1) / grain;
}

void ThreadPool::RunShard(Batch* batch, size_t shard) {
  // After a shard has thrown, remaining shards are skipped (claimed and
  // accounted, not executed) so a poisoned batch drains quickly.
  bool poisoned;
  {
    MutexLock lock(batch->error_mutex);
    poisoned = batch->error != nullptr;
  }
  if (!poisoned) {
    const size_t shard_begin = batch->begin + shard * batch->grain;
    const size_t shard_end = std::min(shard_begin + batch->grain, batch->end);
    try {
      (*batch->fn)(shard_begin, shard_end, shard);
    } catch (...) {
      MutexLock lock(batch->error_mutex);
      if (batch->error == nullptr) batch->error = std::current_exception();
    }
  }
  const size_t done = batch->completed.fetch_add(1, std::memory_order_acq_rel) + 1;
  if (done == batch->shards) {
    // Lock/unlock pairs with the submitter's predicate re-check so the
    // notify cannot slip between its check and its wait.
    { MutexLock lock(batch->done_mutex); }
    batch->done_cv.notify_all();
  }
}

void ThreadPool::DrainBatch(Batch* batch) {
  for (;;) {
    const size_t shard = batch->next.fetch_add(1, std::memory_order_relaxed);
    if (shard >= batch->shards) return;
    RunShard(batch, shard);
  }
}

void ThreadPool::ParallelForShards(size_t begin, size_t end, size_t grain,
                                   const ShardFn& fn) {
  grain = std::max<size_t>(1, grain);
  const size_t shards = NumShards(begin, end, grain);
  if (shards == 0) return;

  // Serial path: no workers, or nothing to share. Exceptions propagate
  // directly; later shards after a throw never run, matching the parallel
  // path's poisoned-batch skip.
  if (num_threads_ <= 1 || shards == 1) {
    for (size_t shard = 0; shard < shards; ++shard) {
      const size_t shard_begin = begin + shard * grain;
      fn(shard_begin, std::min(shard_begin + grain, end), shard);
    }
    return;
  }

  auto batch = std::make_shared<Batch>();
  batch->begin = begin;
  batch->end = end;
  batch->grain = grain;
  batch->shards = shards;
  batch->fn = &fn;

  // Announce the batch to at most (workers, shards-1) helpers — the
  // calling thread takes the remaining share itself.
  const size_t announcements = std::min<size_t>(num_threads_ - 1, shards - 1);
  {
    MutexLock lock(queue_mutex_);
    if (!stopping_) {
      for (size_t i = 0; i < announcements; ++i) {
        queue_.push_back(QueueEntry{batch, nullptr});
      }
    }
  }
  if (announcements == 1) {
    queue_cv_.notify_one();
  } else {
    queue_cv_.notify_all();
  }

  // The caller participates in its own batch: this is what makes nested
  // ParallelFor from inside a worker deadlock-free — every batch has at
  // least one thread (its creator) claiming shards.
  DrainBatch(batch.get());

  {
    // Explicit predicate loop (not the lambda overload): the thread-safety
    // analysis does not carry held capabilities into lambda bodies.
    MutexLock lock(batch->done_mutex);
    while (batch->completed.load(std::memory_order_acquire) != batch->shards) {
      batch->done_cv.wait(batch->done_mutex);
    }
  }

  std::exception_ptr error;
  {
    MutexLock lock(batch->error_mutex);
    error = batch->error;
  }
  if (error != nullptr) std::rethrow_exception(error);
}

void ThreadPool::ParallelFor(size_t begin, size_t end, size_t grain,
                             const std::function<void(size_t)>& fn) {
  ParallelForShards(begin, end, grain,
                    [&fn](size_t shard_begin, size_t shard_end, size_t /*shard*/) {
                      for (size_t i = shard_begin; i < shard_end; ++i) fn(i);
                    });
}

void ThreadPool::Submit(std::function<void()> fn) {
  CP_CHECK(fn != nullptr);
  if (num_threads_ <= 1) {
    fn();
    return;
  }
  {
    MutexLock lock(queue_mutex_);
    if (!stopping_) queue_.push_back(QueueEntry{nullptr, std::move(fn)});
  }
  queue_cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    QueueEntry entry;
    {
      MutexLock lock(queue_mutex_);
      while (!stopping_ && queue_.empty()) queue_cv_.wait(queue_mutex_);
      if (stopping_) return;
      entry = std::move(queue_.front());
      queue_.pop_front();
    }
    if (entry.batch != nullptr) {
      DrainBatch(entry.batch.get());
    } else {
      // Submit closures must not throw (fire-and-forget has nowhere to
      // deliver an exception); a throw here terminates, loudly.
      entry.simple();
    }
  }
}

ThreadPool& ThreadPool::Global() {
  GlobalPoolState& state = GlobalPool();
  MutexLock lock(state.mutex);
  if (state.pool == nullptr) {
    unsigned threads = state.threads == 0 ? DefaultThreads() : state.threads;
    state.pool = new ThreadPool(threads);
  }
  return *state.pool;
}

void ThreadPool::SetGlobalThreads(unsigned num_threads) {
  num_threads = std::max(1u, num_threads);
  GlobalPoolState& state = GlobalPool();
  MutexLock lock(state.mutex);
  state.threads = num_threads;
  if (state.pool != nullptr && state.pool->num_threads() != num_threads) {
    delete state.pool;  // joins the old workers; no work may be in flight
    state.pool = nullptr;
  }
}

unsigned ThreadPool::GlobalThreads() {
  GlobalPoolState& state = GlobalPool();
  MutexLock lock(state.mutex);
  if (state.threads != 0) return state.threads;
  return DefaultThreads();
}

}  // namespace coverpack

/// \file arena.h
/// \brief Page-backed scratch memory for the intra-server hot paths.
///
/// The paper's cost model charges only the Exchange choke point; everything
/// a server does locally is free in the model but dominates wall time. The
/// local operators (joins, semijoins, dedup, degree statistics) used to pay
/// one or more heap allocations per call — per-bucket vectors, per-call
/// unordered_maps — which made them allocation- and cache-bound. This file
/// provides the replacement discipline:
///
///  * `Arena` — a bump allocator over geometrically growing pages. `Reset()`
///    rewinds the cursor but keeps the pages, so steady-state operator calls
///    allocate nothing from the system. Pages are not zeroed, so a page holds
///    physical memory only where it has been written.
///  * `ArenaVector<T>` — a minimal push_back/index container for trivially
///    copyable T backed by an Arena. Growth relocates into a fresh arena
///    block (the abandoned prefix is reclaimed at the next Reset/scope pop).
///  * `ScratchArena::Local()` — the per-thread scratch arena the operators
///    share. Every operator call opens an `ArenaScope`, which remembers the
///    cursor and rewinds it on destruction. Scopes nest like a stack of
///    frames: HypercubeJoin's routing frame stays open while the calling
///    thread runs per-cell GenericJoins, each in a frame of its own. No
///    frame outlives its call: a `PendingJoin`'s count and write each open
///    their own, so the write may run on another thread. Other pool threads
///    may read a frame while its owner waits for them (a hash join's probe
///    shards read the index built in the caller's frame), but only the
///    owning thread allocates from it or rewinds it. A scope
///    that leaves its arena empty frees every page past the first
///    `kRetainedBytes`, so a thread keeps only small pages between calls.
///    Were the large pages kept too, the memory of a multi-threaded run would
///    depend on which threads happened to run the largest operator calls.
///
/// Determinism contract: arena contents never influence results, and what
/// each closing scope records into the run ledger's `memory.*` namespace
/// (logical bytes handed out; util/ledger.h) is a pure function of the
/// operator inputs — so `memory.*` report metrics are byte-identical at any
/// thread count and under any fault schedule, even though the physical
/// pages are per-thread.

#ifndef COVERPACK_UTIL_ARENA_H_
#define COVERPACK_UTIL_ARENA_H_

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <type_traits>
#include <vector>

#include "util/logging.h"

namespace coverpack {

/// A bump allocator over geometrically growing pages.
class Arena {
 public:
  /// First page size; later pages double up to kMaxPageBytes.
  static constexpr size_t kMinPageBytes = size_t{1} << 16;   // 64 KiB
  static constexpr size_t kMaxPageBytes = size_t{1} << 26;   // 64 MiB
  /// Reservation an empty scratch arena keeps: the pages from 64 KiB up to
  /// 2 MiB of the doubling sequence.
  static constexpr size_t kRetainedBytes = size_t{1} << 22;  // 4 MiB

  Arena() = default;
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Returns `bytes` of storage aligned to `align` (a power of two).
  /// Never fails except by std::bad_alloc; zero-byte requests return a
  /// unique non-null cursor position.
  void* Allocate(size_t bytes, size_t align = alignof(std::max_align_t)) {
    CP_DCHECK((align & (align - 1)) == 0);
    size_t cursor = (cursor_ + (align - 1)) & ~(align - 1);
    if (cursor + bytes > limit_ || pages_.empty()) {
      return AllocateSlow(bytes, align);
    }
    void* out = base_ + cursor;
    cursor_ = cursor + bytes;
    used_ += bytes;
    return out;
  }

  /// Typed array allocation (uninitialized storage).
  template <typename T>
  T* AllocateArray(size_t count) {
    static_assert(std::is_trivially_destructible_v<T>,
                  "Arena storage is never destroyed element-wise");
    return static_cast<T*>(Allocate(count * sizeof(T), alignof(T)));
  }

  /// Rewinds the cursor to empty, keeping every page for reuse.
  void Reset();

  /// Logical bytes handed out since the last Reset (excludes alignment
  /// padding and block-switch waste): the content-determined quantity the
  /// memory telemetry reports.
  size_t used() const { return used_; }

  /// Physical bytes reserved from the system across all pages. Depends on
  /// allocation history (and therefore on thread count when arenas are
  /// thread-local) — never put this in a RunReport.
  size_t reserved() const { return reserved_; }

  size_t num_pages() const { return pages_.size(); }

  /// A cursor position for scope save/restore. Opaque: only meaningful to
  /// RewindTo on the same arena.
  struct Mark {
    size_t page = 0;
    size_t cursor = 0;
    size_t used = 0;
  };

  Mark Position() const { return Mark{page_index_, cursor_, used_}; }

  /// Rewinds to a previously captured position. Pages allocated since stay
  /// reserved for reuse.
  void RewindTo(const Mark& mark);

  /// True when nothing is allocated: the cursor is at the start of the
  /// first page.
  bool empty() const { return page_index_ == 0 && cursor_ == 0; }

  /// Frees the pages past the longest prefix whose sizes sum to at most
  /// `keep_bytes`. Precondition: empty().
  void ReleasePagesBeyond(size_t keep_bytes);

 private:
  void* AllocateSlow(size_t bytes, size_t align);
  void ActivatePage(size_t index);

  struct Page {
    std::unique_ptr<char[]> data;
    size_t size = 0;
  };

  std::vector<Page> pages_;
  size_t page_index_ = 0;  // active page (valid iff !pages_.empty())
  char* base_ = nullptr;   // active page base
  size_t cursor_ = 0;      // offset into active page
  size_t limit_ = 0;       // active page size
  size_t used_ = 0;        // logical bytes since Reset
  size_t reserved_ = 0;    // physical bytes across all pages
};

/// A minimal vector for trivially copyable T over an Arena. Not an STL
/// container: no destructors run, growth relocates with memcpy, and the
/// memory is reclaimed by the owning ArenaScope/Reset, never by this class.
template <typename T>
class ArenaVector {
  static_assert(std::is_trivially_copyable_v<T>);

 public:
  explicit ArenaVector(Arena* arena) : arena_(arena) {}
  ArenaVector(Arena* arena, size_t size) : arena_(arena) { resize(size); }

  void reserve(size_t capacity) {
    if (capacity > capacity_) Grow(capacity);
  }

  /// Resizes without initializing new elements (trivial T; callers fill).
  void resize(size_t size) {
    reserve(size);
    size_ = size;
  }

  void push_back(const T& value) {
    if (size_ == capacity_) Grow(size_ + 1);
    data_[size_++] = value;
  }

  void clear() { size_ = 0; }

  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T* begin() { return data_; }
  T* end() { return data_ + size_; }
  const T* begin() const { return data_; }
  const T* end() const { return data_ + size_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  T& back() { return data_[size_ - 1]; }

 private:
  void Grow(size_t needed) {
    size_t capacity = capacity_ == 0 ? 16 : capacity_ * 2;
    if (capacity < needed) capacity = needed;
    T* grown = arena_->AllocateArray<T>(capacity);
    if (size_ != 0) std::memcpy(grown, data_, size_ * sizeof(T));
    data_ = grown;
    capacity_ = capacity;
  }

  Arena* arena_;
  T* data_ = nullptr;
  size_t size_ = 0;
  size_t capacity_ = 0;
};

/// The per-thread scratch arena shared by the local operators.
class ScratchArena {
 public:
  /// This thread's scratch arena. Pool threads and the main thread each own
  /// one; capacity persists across operator calls.
  static Arena& Local();
};

/// RAII frame over an arena: remembers the cursor on entry, rewinds on
/// exit, and records the frame's logical byte usage into the ledger's
/// `memory.*` namespace (scopes, bytes total, largest single frame).
/// Operators open one scope per call; nested calls stack.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena = &ScratchArena::Local())
      : arena_(arena), mark_(arena->Position()) {}
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;
  ~ArenaScope();

  Arena* arena() const { return arena_; }

  /// Logical bytes this frame has handed out so far.
  size_t used() const { return arena_->used() - mark_.used; }

 private:
  Arena* arena_;
  Arena::Mark mark_;
};

/// What the perf probes (bench/perf/probes.cc) read of the ledger's
/// `memory.*` namespace. Everything else reads the ledger by name.
struct MemoryTelemetrySnapshot {
  uint64_t scopes = 0;            ///< operator-level arena frames closed
  uint64_t bytes_total = 0;       ///< sum of logical bytes over all frames
  uint64_t high_water_bytes = 0;  ///< largest single frame
};

/// Read view over the ledger's `memory.*` namespace, kept for the perf
/// probes only.
class MemoryTelemetry {
 public:
  /// Drops the `memory.*` namespace.
  static void Reset();
  static MemoryTelemetrySnapshot Snapshot();
};

}  // namespace coverpack

#endif  // COVERPACK_UTIL_ARENA_H_

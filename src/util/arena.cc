#include "util/arena.h"

#include <algorithm>

#include "util/ledger.h"

namespace coverpack {

void Arena::Reset() {
  page_index_ = 0;
  cursor_ = 0;
  used_ = 0;
  if (!pages_.empty()) {
    base_ = pages_[0].data.get();
    limit_ = pages_[0].size;
  } else {
    base_ = nullptr;
    limit_ = 0;
  }
}

void Arena::ActivatePage(size_t index) {
  page_index_ = index;
  base_ = pages_[index].data.get();
  limit_ = pages_[index].size;
  cursor_ = 0;
}

void* Arena::AllocateSlow(size_t bytes, size_t align) {
  // Walk forward through already-reserved pages before growing.
  size_t next = pages_.empty() ? 0 : page_index_ + 1;
  while (next < pages_.size() && pages_[next].size < bytes) ++next;
  if (next >= pages_.size()) {
    size_t size = pages_.empty() ? kMinPageBytes
                                 : std::min(pages_.back().size * 2, kMaxPageBytes);
    // Oversized single requests get a dedicated page; alignment slack is
    // bounded by `align` because fresh pages start at a max-aligned base.
    if (size < bytes + align) size = bytes + align;
    pages_.push_back(Page{std::make_unique_for_overwrite<char[]>(size), size});
    reserved_ += size;
    next = pages_.size() - 1;
  }
  ActivatePage(next);
  size_t cursor = (reinterpret_cast<uintptr_t>(base_) + (align - 1)) & ~(align - 1);
  cursor -= reinterpret_cast<uintptr_t>(base_);
  CP_CHECK(cursor + bytes <= limit_);
  void* out = base_ + cursor;
  cursor_ = cursor + bytes;
  used_ += bytes;
  return out;
}

void Arena::RewindTo(const Mark& mark) {
  CP_DCHECK(mark.used <= used_);
  if (mark.page < pages_.size()) {
    ActivatePage(mark.page);
  }
  cursor_ = mark.cursor;
  used_ = mark.used;
}

void Arena::ReleasePagesBeyond(size_t keep_bytes) {
  CP_DCHECK(empty());
  size_t kept = 0;
  size_t bytes = 0;
  while (kept < pages_.size() && bytes + pages_[kept].size <= keep_bytes) {
    bytes += pages_[kept++].size;
  }
  if (kept == pages_.size()) return;
  pages_.resize(kept);
  reserved_ = bytes;
  if (pages_.empty()) {
    base_ = nullptr;
    limit_ = 0;
  } else {
    ActivatePage(0);
  }
}

Arena& ScratchArena::Local() {
  static thread_local Arena arena;
  return arena;
}

ArenaScope::~ArenaScope() {
  const uint64_t bytes = used();
  Ledger::Global().Record({Ledger::Add("memory.arena_scopes", 1),
                           Ledger::Add("memory.arena_bytes_total", bytes),
                           Ledger::Max("memory.arena_high_water_bytes", bytes)});
  arena_->RewindTo(mark_);
  if (arena_->empty()) arena_->ReleasePagesBeyond(Arena::kRetainedBytes);
}

void MemoryTelemetry::Reset() { Ledger::Global().Reset("memory."); }

MemoryTelemetrySnapshot MemoryTelemetry::Snapshot() {
  const Metrics ledger = Ledger::Global().Read("memory.");
  return {ledger.CounterValue("memory.arena_scopes"),
          ledger.CounterValue("memory.arena_bytes_total"),
          ledger.MaxValue("memory.arena_high_water_bytes")};
}

}  // namespace coverpack

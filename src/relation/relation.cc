#include "relation/relation.h"

#include <algorithm>

namespace coverpack {

namespace {

/// Reusable per-thread scratch for the sort/dedup/compare paths. The
/// simulator sorts and dedups relations constantly (canonicalization,
/// projections, result comparison); gathering through buffers that keep
/// their capacity across calls removes two allocations per call.
/// Thread-local so concurrent pool tasks never share a buffer.
struct SortScratch {
  std::vector<size_t> order;        // row permutation being sorted
  std::vector<size_t> other_order;  // second permutation for comparisons
  ValueVector gather;               // sorted flat rows, swapped into place
};

SortScratch& LocalScratch() {
  thread_local SortScratch scratch;
  return scratch;
}

/// Fills `*order` with the identity permutation of `rows` indices and sorts
/// it by lexicographic row order over the flat storage.
void SortedOrder(const ValueVector& data, uint32_t width, size_t rows,
                 std::vector<size_t>* order) {
  order->resize(rows);
  for (size_t i = 0; i < rows; ++i) (*order)[i] = i;
  const Value* base = data.data();
  std::sort(order->begin(), order->end(), [base, width](size_t a, size_t b) {
    const Value* pa = base + a * width;
    const Value* pb = base + b * width;
    return std::lexicographical_compare(pa, pa + width, pb, pb + width);
  });
}

/// Sorts the flat row storage lexicographically, gathering through the
/// thread-local scratch buffer (its capacity is reused across calls).
void SortFlatRows(ValueVector* data, uint32_t width, size_t rows) {
  if (width == 0 || rows == 0) return;
  SortScratch& scratch = LocalScratch();
  SortedOrder(*data, width, rows, &scratch.order);
  scratch.gather.clear();
  scratch.gather.reserve(data->size());
  for (size_t i : scratch.order) {
    const Value* p = data->data() + i * width;
    scratch.gather.insert(scratch.gather.end(), p, p + width);
  }
  // Swap rather than assign: the relation adopts the gathered buffer and
  // the scratch inherits this relation's old allocation for the next call.
  data->swap(scratch.gather);
}

}  // namespace

void Relation::Dedup() {
  if (num_rows_ == 0) return;
  if (width_ == 0) {
    // A nullary relation holds copies of the empty tuple; dedup keeps one.
    num_rows_ = 1;
    return;
  }
  SortFlatRows(&data_, width_, num_rows_);
  size_t write = 1;
  for (size_t i = 1; i < num_rows_; ++i) {
    const Value* prev = data_.data() + (write - 1) * width_;
    const Value* cur = data_.data() + i * width_;
    if (!std::equal(cur, cur + width_, prev)) {
      std::copy(cur, cur + width_, data_.data() + write * width_);
      ++write;
    }
  }
  data_.resize(write * width_);
  num_rows_ = write;
}

void Relation::SortRows() { SortFlatRows(&data_, width_, num_rows_); }

bool Relation::SameContentAs(const Relation& other) const {
  if (attrs_ != other.attrs_) return false;
  if (num_rows_ != other.num_rows_) return false;
  if (width_ == 0 || num_rows_ == 0) return true;
  // Compare sorted row orders without materializing sorted copies of
  // either relation: two index permutations and one linear walk.
  SortScratch& scratch = LocalScratch();
  SortedOrder(data_, width_, num_rows_, &scratch.order);
  SortedOrder(other.data_, width_, num_rows_, &scratch.other_order);
  for (size_t k = 0; k < num_rows_; ++k) {
    const Value* pa = data_.data() + scratch.order[k] * width_;
    const Value* pb = other.data_.data() + scratch.other_order[k] * width_;
    if (!std::equal(pa, pa + width_, pb)) return false;
  }
  return true;
}

}  // namespace coverpack

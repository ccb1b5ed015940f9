/// \file relation.h
/// \brief Tuples and relations over the attributes of a query.
///
/// A tuple is an assignment of a 64-bit value to each attribute of its
/// schema (Section 1.1). Relations store rows in a flat column-major-free
/// layout: a row is `width` consecutive values ordered by ascending AttrId,
/// which makes projections and schema alignment deterministic.

#ifndef COVERPACK_RELATION_RELATION_H_
#define COVERPACK_RELATION_RELATION_H_

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "query/attr_set.h"
#include "util/logging.h"

namespace coverpack {

/// Attribute values. Domains are dense integer ranges per attribute.
using Value = uint64_t;

/// A set of tuples over a fixed schema.
class Relation {
 public:
  Relation() = default;

  /// Creates an empty relation over the given attributes.
  explicit Relation(AttrSet attrs) : attrs_(attrs), width_(attrs.size()) {}

  AttrSet attrs() const { return attrs_; }
  uint32_t width() const { return width_; }
  /// Number of rows. Stored explicitly so nullary (zero-width) relations —
  /// boolean subquery results, whose rows carry no values — count their
  /// empty tuples like any other schema.
  size_t size() const { return num_rows_; }
  bool empty() const { return num_rows_ == 0; }

  /// Row access: `width()` values ordered by ascending AttrId.
  std::span<const Value> row(size_t i) const {
    return std::span<const Value>(data_.data() + i * width_, width_);
  }

  /// Appends a row; values must be ordered by ascending AttrId of the schema.
  void AppendRow(std::span<const Value> values) {
    CP_DCHECK(values.size() == width_);
    AppendRows(values.data(), 1);
  }

  void AppendRow(std::initializer_list<Value> values) {
    AppendRow(std::span<const Value>(values.begin(), values.size()));
  }

  /// Appends `count` rows stored contiguously at `values` (count * width()
  /// values, same layout as raw()). The bulk path of the Exchange layer and
  /// of result concatenation: one insert instead of per-row copies.
  void AppendRows(const Value* values, size_t count) {
    CP_DCHECK(RowCountFits(count));
    if (width_ != 0) data_.insert(data_.end(), values, values + count * size_t{width_});
    num_rows_ += count;
  }

  /// Appends `count` rows of uninitialized storage and returns the write
  /// cursor (count * width() values, row-major). The columnar operators
  /// count their output first, append once, and fill in place — no per-row
  /// growth checks. Callers must write every value before reading back.
  Value* AppendUninitialized(size_t count) {
    CP_DCHECK(RowCountFits(count));
    size_t offset = data_.size();
    data_.resize(offset + count * size_t{width_});
    num_rows_ += count;
    return data_.data() + offset;
  }

  /// Appends every row of `other`, which must share this schema.
  void AppendAll(const Relation& other) {
    CP_DCHECK(other.width_ == width_);
    AppendRows(other.data_.data(), other.num_rows_);
  }

  /// Index of an attribute within a row, i.e. its rank in the schema.
  /// Precondition: attrs().Contains(attr).
  uint32_t ColumnOf(AttrId attr) const {
    CP_DCHECK(attrs_.Contains(attr));
    return static_cast<uint32_t>(
        std::popcount(attrs_.bits() & ((uint64_t{1} << attr) - 1)));
  }

  /// Value of `attr` in row i.
  Value At(size_t i, AttrId attr) const { return row(i)[ColumnOf(attr)]; }

  void Reserve(size_t rows) {
    CP_DCHECK(RowCountFits(rows));
    data_.reserve(rows * size_t{width_});
  }
  void Clear() {
    data_.clear();
    num_rows_ = 0;
  }

  /// Drops every row past the first `rows` (rows <= size()). Mutation is
  /// append-only everywhere else, so truncating to a recorded size restores
  /// the relation bit-exactly — the restore primitive of the resilience
  /// layer's round replay.
  void Truncate(size_t rows) {
    CP_DCHECK_LE(rows, num_rows_);
    data_.resize(rows * size_t{width_});
    num_rows_ = rows;
  }

  /// Removes duplicate rows (sorts internally).
  void Dedup();

  /// Sorts rows lexicographically (for canonical comparison in tests).
  void SortRows();

  /// True if both relations have the same schema and the same row multiset.
  bool SameContentAs(const Relation& other) const;

  /// Flat row storage: size() * width() values, rows consecutive. Mutation
  /// goes through AppendRow/AppendRows so the row count stays in sync.
  const std::vector<Value>& raw() const { return data_; }

 private:
  /// Guards the `rows * width_` products of Reserve/Append against size_t
  /// wraparound (a wrapped product would silently desync num_rows_ from the
  /// flat storage).
  bool RowCountFits(size_t rows) const {
    if (width_ == 0) return num_rows_ <= std::numeric_limits<size_t>::max() - rows;
    return rows <= (std::numeric_limits<size_t>::max() - data_.size()) / width_;
  }

  AttrSet attrs_;
  uint32_t width_ = 0;
  size_t num_rows_ = 0;
  std::vector<Value> data_;
};

}  // namespace coverpack

#endif  // COVERPACK_RELATION_RELATION_H_

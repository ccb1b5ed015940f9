/// \file join_index.h
/// \brief Radix-partitioned grouped hash index over row keys.
///
/// The shared build side of the columnar join paths (HashJoin, SemiJoin,
/// the join-tree message pass). One `Build` hashes each build row's key columns
/// once, partitions rows by the hash's top bits (counts first, then a
/// stable scatter — no per-bucket vectors), and lays the groups out as
/// contiguous ascending-row-id runs addressed by per-partition
/// open-addressing tables. A blocked bloom filter over the build hashes
/// lets probes reject misses with a single cache line before touching the
/// table.
///
/// Groups collect rows with *equal 64-bit key hash*, not equal keys: a
/// probe hit is a candidate set, and callers must verify key-column
/// equality per candidate (distinct keys can collide in the hash). Row ids
/// within a group ascend, so probe-in-left-order emission reproduces the
/// exact output row order of the historical unordered_map-of-vectors
/// implementation.
///
/// All scratch lives in a caller-provided Arena; Build allocates nothing
/// from the system heap in steady state.

#ifndef COVERPACK_RELATION_JOIN_INDEX_H_
#define COVERPACK_RELATION_JOIN_INDEX_H_

#include <cstdint>
#include <cstring>

#include "relation/relation.h"
#include "relation/semiring.h"
#include "util/arena.h"

namespace coverpack {

/// FNV-seeded hash chain over the projection of a row onto `cols`
/// (bit-compatible with the historical operators.cc HashKey).
uint64_t HashRowKey(const Value* row, const uint32_t* cols, size_t num_cols);

/// True when the two rows agree on their projected key columns.
inline bool RowKeysEqual(const Value* a, const uint32_t* a_cols, const Value* b,
                         const uint32_t* b_cols, size_t num_cols) {
  for (size_t i = 0; i < num_cols; ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

class GroupedKeyIndex {
 public:
  explicit GroupedKeyIndex(Arena* arena) : arena_(arena) {}

  /// Indexes `rel` grouped by the hash of its `key_cols` projection.
  /// Requires rel.size() <= UINT32_MAX (row ids are 32-bit).
  void Build(const Relation& rel, const uint32_t* key_cols, size_t num_key_cols);

  /// Build-row ids whose key hash equals `hash`, ascending. Empty when no
  /// group matches. Callers verify key equality per id.
  struct Candidates {
    const uint32_t* begin = nullptr;
    const uint32_t* end = nullptr;
    bool empty() const { return begin == end; }
  };
  Candidates Probe(uint64_t hash) const;

  /// Dense id of the group whose key hash equals `hash`, or kNoGroup.
  static constexpr uint32_t kNoGroup = 0xFFFFFFFFu;
  uint32_t ProbeGroup(uint64_t hash) const;

  /// Row-id run of a group (ascending).
  Candidates GroupRows(uint32_t group) const {
    return Candidates{row_ids_ + group_start_[group], row_ids_ + group_start_[group + 1]};
  }

  /// Blocked bloom pre-filter: false means no build row hashes to `hash`.
  bool MightContain(uint64_t hash) const {
    if (num_rows_ == 0) return false;
    uint64_t word = bloom_[(hash >> 32) & bloom_mask_];
    uint64_t mask = (uint64_t{1} << (hash & 63)) | (uint64_t{1} << ((hash >> 6) & 63));
    return (word & mask) == mask;
  }

  size_t num_rows() const { return num_rows_; }

  /// The per-row key hashes computed during Build (index = build row id).
  const uint64_t* hashes() const { return hashes_; }

  /// Number of distinct key hashes (== number of groups).
  size_t num_groups() const { return num_groups_; }

  /// Group id a build row landed in (index = build row id); group ids are
  /// dense in [0, num_groups()). Useful for grouped aggregation.
  const uint32_t* group_of_row() const { return group_of_row_; }

 private:
  struct Partition {
    uint32_t slot_offset = 0;  // into slot arrays
    uint32_t slot_mask = 0;    // capacity - 1 (capacity is a power of two)
  };

  Arena* arena_;
  size_t num_rows_ = 0;
  size_t num_groups_ = 0;
  uint32_t partition_shift_ = 64;  // hash >> shift selects the partition

  const Partition* partitions_ = nullptr;
  uint64_t* slot_hash_ = nullptr;   // open-addressing: key hash per slot
  uint32_t* slot_group_ = nullptr;  // group id per slot; kEmptySlot if free
  uint32_t* group_start_ = nullptr; // group id -> offset into row_ids_
  uint32_t* group_len_ = nullptr;
  uint32_t* row_ids_ = nullptr;     // concatenated groups, ascending per group
  uint32_t* group_of_row_ = nullptr;
  uint64_t* hashes_ = nullptr;
  uint64_t* bloom_ = nullptr;
  uint64_t bloom_mask_ = 0;
};

/// Per-key ⊕-sums of semiring weights over a relation's key columns: the
/// child-to-parent message of the join-tree pass (relation/message_pass.h).
/// Exact keys, not hashes: colliding keys within a hash group get separate
/// entries (a short per-group chain, length 1 in practice).
template <typename S = CountingSemiring>
class KeyedWeightSums {
 public:
  using Weight = typename S::Weight;

  explicit KeyedWeightSums(Arena* arena)
      : arena_(arena), index_(arena), entries_(arena) {}

  /// ⊕-sums `weights[i]` (S::One() for every row when null) per exact key
  /// of `rel`'s `key_cols` projection.
  void Build(const Relation& rel, const uint32_t* key_cols, size_t num_key_cols,
             const Weight* weights) {
    index_.Build(rel, key_cols, num_key_cols);
    build_base_ = rel.raw().data();
    build_width_ = rel.width();
    key_cols_ = key_cols;
    num_key_cols_ = num_key_cols;
    entries_.clear();
    const size_t n = rel.size();
    if (n == 0) return;
    group_head_ = arena_->AllocateArray<uint32_t>(index_.num_groups());
    std::memset(group_head_, 0xFF, index_.num_groups() * sizeof(uint32_t));
    const uint32_t* group_of_row = index_.group_of_row();
    for (size_t i = 0; i < n; ++i) {
      const Value* row = build_base_ + i * build_width_;
      const Weight w = weights == nullptr ? S::One() : weights[i];
      uint32_t g = group_of_row[i];
      uint32_t e = group_head_[g];
      while (e != kNone && !RowKeysEqual(row, key_cols_, RepRow(entries_[e]), key_cols_,
                                         num_key_cols_)) {
        e = entries_[e].next;
      }
      if (e != kNone) {
        entries_[e].sum = S::Add(entries_[e].sum, w);
      } else {
        entries_.push_back(Entry{static_cast<uint32_t>(i), group_head_[g], w});
        group_head_[g] = static_cast<uint32_t>(entries_.size() - 1);
      }
    }
  }

  /// The sum for the key of `row` projected through `cols` (same column
  /// count as Build); S::Zero() when the key never occurred.
  Weight Lookup(const Value* row, const uint32_t* cols) const {
    if (index_.num_rows() == 0) return S::Zero();
    uint64_t h = HashRowKey(row, cols, num_key_cols_);
    if (!index_.MightContain(h)) return S::Zero();
    uint32_t g = index_.ProbeGroup(h);
    if (g == GroupedKeyIndex::kNoGroup) return S::Zero();
    for (uint32_t e = group_head_[g]; e != kNone; e = entries_[e].next) {
      if (RowKeysEqual(row, cols, RepRow(entries_[e]), key_cols_, num_key_cols_)) {
        return entries_[e].sum;
      }
    }
    return S::Zero();
  }

 private:
  struct Entry {
    uint32_t rep_row;  // a build row carrying this exact key
    uint32_t next;     // next entry in the group chain, or kNone
    Weight sum;
  };
  static constexpr uint32_t kNone = 0xFFFFFFFFu;

  const Value* RepRow(const Entry& entry) const {
    return build_base_ + size_t{entry.rep_row} * build_width_;
  }

  Arena* arena_;
  GroupedKeyIndex index_;
  ArenaVector<Entry> entries_;
  uint32_t* group_head_ = nullptr;
  const Value* build_base_ = nullptr;
  uint32_t build_width_ = 0;
  const uint32_t* key_cols_ = nullptr;
  size_t num_key_cols_ = 0;
};

}  // namespace coverpack

#endif  // COVERPACK_RELATION_JOIN_INDEX_H_

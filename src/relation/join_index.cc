#include "relation/join_index.h"

#include <algorithm>
#include <bit>
#include <cstring>

#include "util/logging.h"

namespace coverpack {

namespace {

constexpr uint32_t kEmptySlot = 0xFFFFFFFFu;

/// Target build rows per radix partition: small enough that a partition's
/// table and group runs stay cache-resident while it is built and probed.
constexpr size_t kRowsPerPartition = size_t{1} << 12;
constexpr size_t kMaxPartitions = size_t{1} << 10;

size_t NextPow2(size_t v) { return std::bit_ceil(v); }

}  // namespace

void GroupedKeyIndex::Build(const Relation& rel, const uint32_t* key_cols,
                            size_t num_key_cols) {
  const size_t n = rel.size();
  CP_CHECK(n <= kEmptySlot);
  num_rows_ = n;
  num_groups_ = 0;
  if (n == 0) return;

  const uint32_t width = rel.width();
  const Value* base = rel.raw().data();

  // Hash every row's key once, and feed the bloom filter as we go.
  hashes_ = arena_->AllocateArray<uint64_t>(n);
  const size_t bloom_words = NextPow2(n / 4 + 8);
  bloom_mask_ = bloom_words - 1;
  bloom_ = arena_->AllocateArray<uint64_t>(bloom_words);
  std::memset(bloom_, 0, bloom_words * sizeof(uint64_t));
  for (size_t i = 0; i < n; ++i) {
    uint64_t h = HashRowKey(base + i * width, key_cols, num_key_cols);
    hashes_[i] = h;
    bloom_[(h >> 32) & bloom_mask_] |=
        (uint64_t{1} << (h & 63)) | (uint64_t{1} << ((h >> 6) & 63));
  }

  // Partition rows by the hash's top bits: counts first, then a stable
  // ascending scatter (row ids within a partition stay sorted).
  size_t num_partitions =
      std::min(kMaxPartitions, NextPow2(n / kRowsPerPartition + 1));
  partition_shift_ = 64 - static_cast<uint32_t>(std::countr_zero(num_partitions));
  if (num_partitions == 1) partition_shift_ = 64;

  uint32_t* part_count = arena_->AllocateArray<uint32_t>(num_partitions + 1);
  std::memset(part_count, 0, (num_partitions + 1) * sizeof(uint32_t));
  auto partition_of = [this](uint64_t h) -> size_t {
    return partition_shift_ == 64 ? 0 : h >> partition_shift_;
  };
  for (size_t i = 0; i < n; ++i) ++part_count[partition_of(hashes_[i])];

  uint32_t* part_start = arena_->AllocateArray<uint32_t>(num_partitions + 1);
  uint32_t sum = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    part_start[p] = sum;
    sum += part_count[p];
  }
  part_start[num_partitions] = sum;

  uint32_t* part_rows = arena_->AllocateArray<uint32_t>(n);
  {
    uint32_t* fill = arena_->AllocateArray<uint32_t>(num_partitions);
    std::memcpy(fill, part_start, num_partitions * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i) {
      part_rows[fill[partition_of(hashes_[i])]++] = static_cast<uint32_t>(i);
    }
  }

  // Per-partition open-addressing tables over a shared slot array.
  Partition* partitions = arena_->AllocateArray<Partition>(num_partitions);
  size_t total_slots = 0;
  for (size_t p = 0; p < num_partitions; ++p) {
    size_t capacity = NextPow2(size_t{part_count[p]} * 2 + 4);
    partitions[p].slot_offset = static_cast<uint32_t>(total_slots);
    partitions[p].slot_mask = static_cast<uint32_t>(capacity - 1);
    total_slots += capacity;
  }
  partitions_ = partitions;
  slot_hash_ = arena_->AllocateArray<uint64_t>(total_slots);
  slot_group_ = arena_->AllocateArray<uint32_t>(total_slots);
  std::memset(slot_group_, 0xFF, total_slots * sizeof(uint32_t));

  // Pass 1: discover groups (first occurrence claims a slot), count members.
  group_of_row_ = arena_->AllocateArray<uint32_t>(n);
  group_len_ = arena_->AllocateArray<uint32_t>(n);  // <= n groups
  for (size_t k = 0; k < n; ++k) {
    uint32_t row_id = part_rows[k];
    uint64_t h = hashes_[row_id];
    const Partition& part = partitions[partition_of(h)];
    uint32_t idx = static_cast<uint32_t>(h) & part.slot_mask;
    for (;;) {
      uint32_t slot = part.slot_offset + idx;
      if (slot_group_[slot] == kEmptySlot) {
        uint32_t g = static_cast<uint32_t>(num_groups_++);
        slot_group_[slot] = g;
        slot_hash_[slot] = h;
        group_len_[g] = 1;
        group_of_row_[row_id] = g;
        break;
      }
      if (slot_hash_[slot] == h) {
        uint32_t g = slot_group_[slot];
        ++group_len_[g];
        group_of_row_[row_id] = g;
        break;
      }
      idx = (idx + 1) & part.slot_mask;
    }
  }

  group_start_ = arena_->AllocateArray<uint32_t>(num_groups_ + 1);
  {
    uint32_t offset = 0;
    for (size_t g = 0; g < num_groups_; ++g) {
      group_start_[g] = offset;
      offset += group_len_[g];
    }
    group_start_[num_groups_] = offset;
  }

  // Pass 2: stable scatter of ascending row ids into their group runs.
  // Iterating build rows in id order (not partition order) keeps every
  // group's run ascending regardless of partitioning.
  row_ids_ = arena_->AllocateArray<uint32_t>(n);
  {
    uint32_t* fill = arena_->AllocateArray<uint32_t>(num_groups_);
    std::memcpy(fill, group_start_, num_groups_ * sizeof(uint32_t));
    for (size_t i = 0; i < n; ++i) {
      row_ids_[fill[group_of_row_[i]]++] = static_cast<uint32_t>(i);
    }
  }
}

uint32_t GroupedKeyIndex::ProbeGroup(uint64_t hash) const {
  if (num_rows_ == 0) return kNoGroup;
  const Partition& part =
      partitions_[partition_shift_ == 64 ? 0 : hash >> partition_shift_];
  uint32_t idx = static_cast<uint32_t>(hash) & part.slot_mask;
  for (;;) {
    uint32_t slot = part.slot_offset + idx;
    uint32_t g = slot_group_[slot];
    if (g == kEmptySlot) return kNoGroup;
    if (slot_hash_[slot] == hash) return g;
    idx = (idx + 1) & part.slot_mask;
  }
}

GroupedKeyIndex::Candidates GroupedKeyIndex::Probe(uint64_t hash) const {
  uint32_t g = ProbeGroup(hash);
  if (g == kNoGroup) return Candidates{};
  return GroupRows(g);
}

}  // namespace coverpack

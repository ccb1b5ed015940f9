#include "relation/operators.h"

#include <algorithm>
#include <cstring>
#include <numeric>

#include "relation/join_index.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/logging.h"
#include "util/thread_pool.h"

namespace coverpack {

namespace {

uint32_t* ColumnsOf(const Relation& relation, AttrSet attrs, Arena* arena) {
  uint32_t* cols = arena->AllocateArray<uint32_t>(attrs.size());
  size_t k = 0;
  for (AttrId attr : attrs.ToVector()) cols[k++] = relation.ColumnOf(attr);
  return cols;
}

/// Copies the rows flagged in `keep` into `output`, coalescing consecutive
/// keepers into single bulk copies. Preserves input row order.
void GatherKeptRows(const Relation& input, const uint8_t* keep, size_t matches,
                    Relation* output) {
  const size_t n = input.size();
  const uint32_t width = input.width();
  const Value* src = input.raw().data();
  Value* dst = output->AppendUninitialized(matches);
  size_t i = 0;
  while (i < n) {
    if (!keep[i]) {
      ++i;
      continue;
    }
    size_t run = i + 1;
    while (run < n && keep[run]) ++run;
    std::memcpy(dst, src + i * width, (run - i) * width * sizeof(Value));
    dst += (run - i) * width;
    i = run;
  }
}

/// Shared core of SelectIn/SelectNotIn: keep rows whose `col` value is
/// (resp. is not) present in `sorted_values`.
Relation SelectByMembership(const Relation& input, uint32_t col,
                            const std::vector<Value>& sorted_values, bool keep_members) {
  Relation output(input.attrs());
  const size_t n = input.size();
  if (n == 0) return output;
  ArenaScope scope;
  uint8_t* keep = scope.arena()->AllocateArray<uint8_t>(n);
  const Value* src = input.raw().data();
  const uint32_t width = input.width();
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    bool member = std::binary_search(sorted_values.begin(), sorted_values.end(),
                                     src[i * width + col]);
    keep[i] = (member == keep_members);
    matches += keep[i];
  }
  output.Reserve(matches);
  GatherKeptRows(input, keep, matches, &output);
  return output;
}

/// The probe side of one hash join over an index of `right` built in the
/// caller's arena. Both passes split the left rows into kJoinProbeGrain
/// shards on the global pool. A shard only reads the inputs, the index and
/// the column plan, and opens no arena scope, so the `memory.*` record is
/// the caller's alone. CountShards and Write walk the same matches in the
/// same order, HashJoin's: ascending left row, then ascending right row
/// within a key group. Both inputs must be nonempty.
class JoinProbe {
 public:
  JoinProbe(const Relation& left, const Relation& right, Arena* arena)
      : left_(left), right_(right), index_(arena) {
    const AttrSet shared = left.attrs().Intersect(right.attrs());
    left_cols_ = ColumnsOf(left, shared, arena);
    right_cols_ = ColumnsOf(right, shared, arena);
    num_keys_ = shared.size();
    index_.Build(right, right_cols_, num_keys_);

    // Output column plan: for each output attribute, where to read it from.
    const AttrSet out_attrs = left.attrs().Union(right.attrs());
    out_width_ = out_attrs.size();
    plan_ = arena->AllocateArray<Source>(out_width_);
    size_t k = 0;
    for (AttrId attr : out_attrs.ToVector()) {
      if (left.attrs().Contains(attr)) {
        plan_[k++] = {1, left.ColumnOf(attr)};
      } else {
        plan_[k++] = {0, right.ColumnOf(attr)};
      }
    }
  }

  /// Number of matching (left, right) row pairs of each left-row shard.
  std::vector<size_t> CountShards() const {
    const size_t n = left_.size();
    std::vector<size_t> shard_rows(ThreadPool::NumShards(0, n, kJoinProbeGrain));
    ThreadPool::Global().ParallelForShards(
        0, n, kJoinProbeGrain, [this, &shard_rows](size_t begin, size_t end, size_t shard) {
          size_t rows = 0;
          ForEachMatch(begin, end, [&rows](const Value*, const Value*) { ++rows; });
          shard_rows[shard] = rows;
        });
    return shard_rows;
  }

  /// Writes the joined rows to `dst`, rows of the union schema's width:
  /// each shard's at the sum of the earlier shards' counts in `shard_rows`,
  /// this probe's CountShards(). A shard checks before each row that its
  /// count has room for it, so a short count stops before it writes past
  /// its slice, and at the end that it wrote exactly its count.
  void Write(const std::vector<size_t>& shard_rows, Value* dst) const {
    std::vector<size_t> offsets(shard_rows.size());
    std::exclusive_scan(shard_rows.begin(), shard_rows.end(), offsets.begin(), size_t{0});
    ThreadPool::Global().ParallelForShards(
        0, left_.size(), kJoinProbeGrain,
        [this, &shard_rows, &offsets, dst](size_t begin, size_t end, size_t shard) {
          Value* out = dst + offsets[shard] * out_width_;
          size_t written = 0;
          ForEachMatch(begin, end, [&](const Value* lrow, const Value* rrow) {
            CP_CHECK(written < shard_rows[shard])
                << "shard " << shard << " overruns its count";
            for (uint32_t k = 0; k < out_width_; ++k) {
              out[k] = plan_[k].from_left ? lrow[plan_[k].col] : rrow[plan_[k].col];
            }
            out += out_width_;
            ++written;
          });
          CP_CHECK_EQ(written, shard_rows[shard]);
        });
  }

 private:
  struct Source {
    uint8_t from_left;
    uint32_t col;
  };

  /// Visits the matches of left rows [begin, end) in output order.
  template <typename Visit>
  void ForEachMatch(size_t begin, size_t end, const Visit& visit) const {
    const Value* lbase = left_.raw().data();
    const Value* rbase = right_.raw().data();
    const uint32_t lwidth = left_.width();
    const uint32_t rwidth = right_.width();
    for (size_t i = begin; i < end; ++i) {
      const Value* lrow = lbase + i * lwidth;
      const uint64_t h = HashRowKey(lrow, left_cols_, num_keys_);
      if (!index_.MightContain(h)) continue;
      const GroupedKeyIndex::Candidates candidates = index_.Probe(h);
      for (const uint32_t* j = candidates.begin; j != candidates.end; ++j) {
        const Value* rrow = rbase + size_t{*j} * rwidth;
        if (RowKeysEqual(lrow, left_cols_, rrow, right_cols_, num_keys_)) visit(lrow, rrow);
      }
    }
  }

  const Relation& left_;
  const Relation& right_;
  GroupedKeyIndex index_;
  uint32_t* left_cols_ = nullptr;
  uint32_t* right_cols_ = nullptr;
  size_t num_keys_ = 0;
  uint32_t out_width_ = 0;
  Source* plan_ = nullptr;
};

}  // namespace

Relation Select(const Relation& input, AttrId attr, Value value) {
  Relation output(input.attrs());
  const size_t n = input.size();
  if (n == 0) return output;
  const uint32_t col = input.ColumnOf(attr);
  const uint32_t width = input.width();
  const Value* src = input.raw().data();
  // Branch-free flag-and-count over the column, then one bulk append filled
  // by run-coalesced copies.
  ArenaScope scope;
  uint8_t* keep = scope.arena()->AllocateArray<uint8_t>(n);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    keep[i] = (src[i * width + col] == value);
    matches += keep[i];
  }
  output.Reserve(matches);
  GatherKeptRows(input, keep, matches, &output);
  return output;
}

Relation SelectIn(const Relation& input, AttrId attr, const std::vector<Value>& sorted_values) {
  return SelectByMembership(input, input.ColumnOf(attr), sorted_values, true);
}

Relation SelectNotIn(const Relation& input, AttrId attr,
                     const std::vector<Value>& sorted_values) {
  return SelectByMembership(input, input.ColumnOf(attr), sorted_values, false);
}

Relation Project(const Relation& input, AttrSet attrs) {
  CP_CHECK(attrs.IsSubsetOf(input.attrs()));
  Relation output(attrs);
  const size_t n = input.size();
  if (n == 0) return output;
  ArenaScope scope;
  uint32_t* cols = ColumnsOf(input, attrs, scope.arena());
  const size_t out_width = attrs.size();
  const uint32_t in_width = input.width();
  const Value* src = input.raw().data();
  Value* dst = output.AppendUninitialized(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* row = src + i * in_width;
    for (size_t j = 0; j < out_width; ++j) dst[j] = row[cols[j]];
    dst += out_width;
  }
  output.Dedup();
  return output;
}

std::vector<Value> DistinctValues(const Relation& input, AttrId attr) {
  std::vector<Value> values(input.size());
  const uint32_t col = input.ColumnOf(attr);
  const uint32_t width = input.width();
  const Value* src = input.raw().data() + col;
  for (size_t i = 0; i < values.size(); ++i) values[i] = src[i * width];
  std::sort(values.begin(), values.end());
  values.erase(std::unique(values.begin(), values.end()), values.end());
  return values;
}

Relation SemiJoin(const Relation& left, const Relation& right) {
  AttrSet shared = left.attrs().Intersect(right.attrs());
  if (shared.empty()) {
    return right.empty() ? Relation(left.attrs()) : left;
  }
  Relation output(left.attrs());
  const size_t n = left.size();
  if (n == 0 || right.empty()) return output;

  ArenaScope scope;
  Arena* arena = scope.arena();
  uint32_t* left_cols = ColumnsOf(left, shared, arena);
  uint32_t* right_cols = ColumnsOf(right, shared, arena);
  const size_t num_keys = shared.size();

  GroupedKeyIndex index(arena);
  index.Build(right, right_cols, num_keys);

  const Value* lbase = left.raw().data();
  const Value* rbase = right.raw().data();
  const uint32_t lwidth = left.width();
  const uint32_t rwidth = right.width();

  uint8_t* keep = arena->AllocateArray<uint8_t>(n);
  size_t matches = 0;
  for (size_t i = 0; i < n; ++i) {
    const Value* lrow = lbase + i * lwidth;
    uint64_t h = HashRowKey(lrow, left_cols, num_keys);
    uint8_t hit = 0;
    if (index.MightContain(h)) {
      auto candidates = index.Probe(h);
      for (const uint32_t* j = candidates.begin; j != candidates.end; ++j) {
        if (RowKeysEqual(lrow, left_cols, rbase + size_t{*j} * rwidth, right_cols,
                         num_keys)) {
          hit = 1;
          break;
        }
      }
    }
    keep[i] = hit;
    matches += hit;
  }
  output.Reserve(matches);
  GatherKeptRows(left, keep, matches, &output);
  return output;
}

Relation HashJoin(const Relation& left, const Relation& right) {
  Relation output(left.attrs().Union(right.attrs()));
  if (left.empty() || right.empty()) return output;
  ArenaScope scope;
  const JoinProbe probe(left, right, scope.arena());
  const std::vector<size_t> shard_rows = probe.CountShards();
  const size_t rows = std::accumulate(shard_rows.begin(), shard_rows.end(), size_t{0});
  probe.Write(shard_rows, output.AppendUninitialized(rows));
  return output;
}

PendingJoin::PendingJoin(const std::vector<const Relation*>& inputs) {
  CP_CHECK(!inputs.empty());
  for (const Relation* input : inputs) attrs_ = attrs_.Union(input->attrs());
  std::vector<const Relation*> ordered = inputs;
  std::sort(ordered.begin(), ordered.end(),
            [](const Relation* a, const Relation* b) { return a->size() < b->size(); });
  first_ = ordered.front();
  if (ordered.size() == 1) {
    rows_ = first_->size();
    return;
  }
  last_ = ordered.back();
  for (size_t i = 1; i + 1 < ordered.size(); ++i) {
    folded_ = HashJoin(left(), *ordered[i]);
    fold_ = true;
    if (folded_.empty()) return;  // an empty join, over the union schema
  }
  if (left().empty() || last_->empty()) return;
  ArenaScope scope;
  shard_rows_ = JoinProbe(left(), *last_, scope.arena()).CountShards();
  rows_ = std::accumulate(shard_rows_.begin(), shard_rows_.end(), size_t{0});
}

size_t PendingJoin::WriteInto(Value* dst) const {
  if (last_ == nullptr) {
    std::copy(first_->raw().begin(), first_->raw().end(), dst);
    return rows_;
  }
  if (rows_ == 0) return 0;
  ArenaScope scope;
  JoinProbe(left(), *last_, scope.arena()).Write(shard_rows_, dst);
  return rows_;
}

Relation MultiwayJoin(const std::vector<const Relation*>& inputs) {
  const PendingJoin join(inputs);
  Relation output(join.attrs());
  CP_CHECK_EQ(join.WriteInto(output.AppendUninitialized(join.size())), join.size());
  return output;
}

void AttachConstantInto(const Relation& input, AttrId attr, Value value, Value* dst) {
  CP_CHECK(!input.attrs().Contains(attr));
  const uint32_t insert_at = input.attrs().Intersect(AttrSet::FirstN(attr)).size();
  const uint32_t in_width = input.width();
  const Value* src = input.raw().data();
  for (size_t i = 0; i < input.size(); ++i) {
    const Value* row = src + i * in_width;
    for (uint32_t c = 0; c < insert_at; ++c) dst[c] = row[c];
    dst[insert_at] = value;
    for (uint32_t c = insert_at; c < in_width; ++c) dst[c + 1] = row[c];
    dst += in_width + 1;
  }
}

Relation AttachConstant(const Relation& input, AttrId attr, Value value) {
  Relation output(input.attrs().Union(AttrSet::Single(attr)));
  AttachConstantInto(input, attr, value, output.AppendUninitialized(input.size()));
  return output;
}

Relation DropColumn(const Relation& input, AttrId attr) {
  CP_CHECK(input.attrs().Contains(attr));
  AttrSet out_attrs = input.attrs().Minus(AttrSet::Single(attr));
  Relation output(out_attrs);
  const size_t n = input.size();
  if (n == 0) return output;
  const uint32_t drop_at = input.ColumnOf(attr);
  const uint32_t in_width = input.width();
  const Value* src = input.raw().data();
  Value* dst = output.AppendUninitialized(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* row = src + i * in_width;
    for (uint32_t c = 0; c < drop_at; ++c) dst[c] = row[c];
    for (uint32_t c = drop_at + 1; c < in_width; ++c) dst[c - 1] = row[c];
    dst += in_width - 1;
  }
  return output;
}

std::optional<Instance> ResidualInstance(const Hypergraph& query, const Instance& instance,
                                         const Hypergraph& residual, AttrId x, Value a) {
  Instance result(residual);
  for (uint32_t e = 0; e < residual.num_edges(); ++e) {
    const Relation& source = instance[*residual.SameNamedEdgeIn(query, e)];
    if (source.attrs().Contains(x)) {
      Relation selected = Select(source, x, a);
      if (selected.empty()) return std::nullopt;
      result[e] = DropColumn(selected, x);
    } else {
      result[e] = source;
    }
  }
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    if (query.edge(e).attrs == AttrSet::Single(x) && Select(instance[e], x, a).empty()) {
      return std::nullopt;
    }
  }
  return result;
}

std::vector<std::pair<Value, uint64_t>> DegreeHistogram(const Relation& input, AttrId attr) {
  std::vector<std::pair<Value, uint64_t>> histogram;
  if (input.empty()) return histogram;
  // Gather the column, sort it, and run-length encode: no hash table, and
  // the histogram comes out sorted by value for free.
  ArenaScope scope;
  Value* values = scope.arena()->AllocateArray<Value>(input.size());
  ForEachColumnRun(input, input.ColumnOf(attr), values, [&histogram](Value value, size_t degree) {
    histogram.emplace_back(value, degree);
  });
  return histogram;
}

}  // namespace coverpack

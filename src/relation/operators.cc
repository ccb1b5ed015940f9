#include "relation/operators.h"

#include <algorithm>
#include <cstring>

#include "relation/join_index.h"
#include "util/arena.h"
#include "util/hash.h"
#include "util/logging.h"

namespace coverpack {

namespace {

bool KeysEqual(const Value* a, const uint32_t* a_cols, const Value* b,
               const uint32_t* b_cols, size_t num_cols) {
  for (size_t i = 0; i < num_cols; ++i) {
    if (a[a_cols[i]] != b[b_cols[i]]) return false;
  }
  return true;
}

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
        if (KeysEqual(lrow, left_cols, rbase + size_t{*j} * rwidth, right_cols,
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
  AttrSet shared = left.attrs().Intersect(right.attrs());
  AttrSet out_attrs = left.attrs().Union(right.attrs());
  Relation output(out_attrs);
  if (left.empty() || right.empty()) return output;

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
  const size_t n = left.size();
  CP_CHECK(n <= 0xFFFFFFFFu);

  // Probe pass: verified (left, right) row-id pairs in output order —
  // ascending left row, then ascending right row within a key group.
  ArenaVector<uint64_t> pairs(arena);
  for (size_t i = 0; i < n; ++i) {
    const Value* lrow = lbase + i * lwidth;
    uint64_t h = HashRowKey(lrow, left_cols, num_keys);
    if (!index.MightContain(h)) continue;
    auto candidates = index.Probe(h);
    for (const uint32_t* j = candidates.begin; j != candidates.end; ++j) {
      if (KeysEqual(lrow, left_cols, rbase + size_t{*j} * rwidth, right_cols,
                    num_keys)) {
        pairs.push_back((uint64_t{i} << 32) | *j);
      }
    }
  }

  // Output column plan: for each output attribute, where to read it from.
  const uint32_t out_width = output.width();
  struct Source {
    uint8_t from_left;
    uint32_t col;
  };
  Source* plan = arena->AllocateArray<Source>(out_width);
  {
    size_t k = 0;
    for (AttrId attr : out_attrs.ToVector()) {
      if (left.attrs().Contains(attr)) {
        plan[k++] = {1, left.ColumnOf(attr)};
      } else {
        plan[k++] = {0, right.ColumnOf(attr)};
      }
    }
  }

  // Emit pass: one bulk append, columns gathered pair by pair.
  Value* dst = output.AppendUninitialized(pairs.size());
  for (uint64_t pair : pairs) {
    const Value* lrow = lbase + (pair >> 32) * lwidth;
    const Value* rrow = rbase + (pair & 0xFFFFFFFFu) * rwidth;
    for (uint32_t k = 0; k < out_width; ++k) {
      dst[k] = plan[k].from_left ? lrow[plan[k].col] : rrow[plan[k].col];
    }
    dst += out_width;
  }
  return output;
}

Relation MultiwayJoin(const std::vector<const Relation*>& inputs) {
  CP_CHECK(!inputs.empty());
  std::vector<const Relation*> ordered = inputs;
  std::sort(ordered.begin(), ordered.end(),
            [](const Relation* a, const Relation* b) { return a->size() < b->size(); });
  Relation result = *ordered[0];
  for (size_t i = 1; i < ordered.size(); ++i) {
    result = HashJoin(result, *ordered[i]);
    if (result.empty()) {
      // Stop early, but over the schema the whole join has.
      AttrSet attrs;
      for (const Relation* input : inputs) attrs = attrs.Union(input->attrs());
      return Relation(attrs);
    }
  }
  return result;
}

Relation AttachConstant(const Relation& input, AttrId attr, Value value) {
  CP_CHECK(!input.attrs().Contains(attr));
  AttrSet out_attrs = input.attrs().Union(AttrSet::Single(attr));
  Relation output(out_attrs);
  const size_t n = input.size();
  if (n == 0) return output;
  const uint32_t insert_at = output.ColumnOf(attr);
  const uint32_t in_width = input.width();
  const Value* src = input.raw().data();
  Value* dst = output.AppendUninitialized(n);
  for (size_t i = 0; i < n; ++i) {
    const Value* row = src + i * in_width;
    for (uint32_t c = 0; c < insert_at; ++c) dst[c] = row[c];
    dst[insert_at] = value;
    for (uint32_t c = insert_at; c < in_width; ++c) dst[c + 1] = row[c];
    dst += in_width + 1;
  }
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
  const size_t n = input.size();
  if (n == 0) return histogram;
  // Gather the column, sort it, and run-length encode: no hash table, and
  // the histogram comes out sorted by value for free.
  ArenaScope scope;
  Value* values = scope.arena()->AllocateArray<Value>(n);
  const uint32_t width = input.width();
  const Value* src = input.raw().data() + input.ColumnOf(attr);
  for (size_t i = 0; i < n; ++i) values[i] = src[i * width];
  std::sort(values, values + n);
  size_t i = 0;
  while (i < n) {
    size_t run = i + 1;
    while (run < n && values[run] == values[i]) ++run;
    histogram.emplace_back(values[i], run - i);
    i = run;
  }
  return histogram;
}

}  // namespace coverpack

#include "workload/generators.h"

#include <algorithm>

#include "util/logging.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace workload {

namespace {

/// Rows per generation shard. Fixed — never derived from the thread
/// count — so the shard decomposition, the per-shard Rng streams, and the
/// merge order are identical at any parallelism level.
constexpr size_t kGenGrain = 4096;

/// Appends the shard buffers (flat row-major Value runs) to the relation in
/// ascending shard order.
void AppendShardBuffers(Relation* relation, uint32_t width,
                        const std::vector<std::vector<Value>>& shard_rows) {
  if (width == 0) return;
  for (const std::vector<Value>& buffer : shard_rows) {
    relation->AppendRows(buffer.data(), buffer.size() / width);
  }
}

/// The sorted, distinct union of two sorted, distinct relations over one
/// schema: what Dedup of their concatenation gives, in one linear merge.
Relation MergeDistinct(const Relation& a, const Relation& b) {
  const uint32_t width = a.width();
  const auto row_less = [width](const Value* x, const Value* y) {
    return std::lexicographical_compare(x, x + width, y, y + width);
  };
  Relation merged(a.attrs());
  Value* out = merged.AppendUninitialized(a.size() + b.size());
  size_t rows = 0;
  const auto emit = [&](const Value* row) {
    out = std::copy(row, row + width, out);
    ++rows;
  };
  size_t i = 0;
  size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (row_less(b.row(j).data(), a.row(i).data())) {
      emit(b.row(j++).data());
      continue;
    }
    if (!row_less(a.row(i).data(), b.row(j).data())) ++j;  // in both: keep one
    emit(a.row(i++).data());
  }
  for (; i < a.size(); ++i) emit(a.row(i).data());
  for (; j < b.size(); ++j) emit(b.row(j).data());
  merged.Truncate(rows);
  return merged;
}

/// Draws rows until `n` distinct ones exist or `max_attempts` rows were
/// drawn; `draw` gives one value from a shard's stream. Each refill round
/// consumes exactly one base draw from the caller's rng; shards split
/// private streams off that base, so the output depends only on the
/// caller's rng state and the deficit, never on the thread count. The kept
/// rows stay sorted and distinct: a round sorts and dedups only its fresh
/// draws and merges them in.
template <typename Draw>
Relation DrawDistinct(AttrSet attrs, size_t n, size_t max_attempts, Rng* rng,
                      const Draw& draw) {
  Relation relation(attrs);
  const uint32_t width = attrs.size();
  size_t attempts = 0;
  while (relation.size() < n && attempts < max_attempts) {
    const size_t deficit = n - relation.size();
    const uint64_t round_base = rng->Next();
    std::vector<std::vector<Value>> shard_rows(ThreadPool::NumShards(0, deficit, kGenGrain));
    ThreadPool::Global().ParallelForShards(
        0, deficit, kGenGrain, [&](size_t shard_begin, size_t shard_end, size_t shard) {
          shard_end = std::min(shard_end, deficit);
          Rng shard_rng(SplitSeed(round_base, shard));
          std::vector<Value>& buffer = shard_rows[shard];
          buffer.reserve((shard_end - shard_begin) * width);
          for (size_t i = shard_begin; i < shard_end; ++i) {
            for (uint32_t c = 0; c < width; ++c) buffer.push_back(draw(&shard_rng));
          }
        });
    Relation fresh(attrs);
    AppendShardBuffers(&fresh, width, shard_rows);
    fresh.Dedup();
    relation = MergeDistinct(relation, fresh);
    attempts += deficit;
  }
  return relation;
}

}  // namespace

Relation UniformRandom(AttrSet attrs, size_t n, uint64_t domain, Rng* rng) {
  CP_CHECK_GT(domain, 0u);
  return DrawDistinct(attrs, n, n * 20 + 1000, rng,
                      [domain](Rng* shard_rng) { return shard_rng->Uniform(domain); });
}

Relation Matching(AttrSet attrs, size_t n) {
  Relation relation(attrs);
  relation.Reserve(n);
  uint32_t width = attrs.size();
  std::vector<Value> row(width);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t c = 0; c < width; ++c) row[c] = i;
    relation.AppendRow(std::span<const Value>(row));
  }
  return relation;
}

Relation Cartesian(AttrSet attrs, const std::vector<uint64_t>& dims) {
  uint32_t width = attrs.size();
  CP_CHECK_EQ(dims.size(), width);
  uint64_t total = 1;
  for (uint64_t d : dims) {
    CP_CHECK_GT(d, 0u);
    total *= d;
    CP_CHECK_LT(total, uint64_t{1} << 32) << "Cartesian relation too large";
  }
  Relation relation(attrs);
  relation.Reserve(total);
  // Mixed-radix decoding is independent per index: shards decode into
  // private buffers appended in shard order (= ascending index order).
  size_t num_shards = ThreadPool::NumShards(0, total, kGenGrain);
  std::vector<std::vector<Value>> shard_rows(num_shards);
  ThreadPool::Global().ParallelForShards(
      0, total, kGenGrain, [&](size_t shard_begin, size_t shard_end, size_t shard) {
        shard_end = std::min<size_t>(shard_end, total);
        std::vector<Value>& buffer = shard_rows[shard];
        buffer.reserve((shard_end - shard_begin) * width);
        for (size_t index = shard_begin; index < shard_end; ++index) {
          uint64_t rest = index;
          for (uint32_t c = 0; c < width; ++c) {
            buffer.push_back(rest % dims[c]);
            rest /= dims[c];
          }
        }
      });
  AppendShardBuffers(&relation, width, shard_rows);
  return relation;
}

Relation Zipf(AttrSet attrs, size_t n, uint64_t domain, double skew, Rng* rng) {
  const ZipfSampler sampler(domain, skew);  // const after construction; shared by shards
  return DrawDistinct(attrs, n, n * 50 + 1000, rng,
                      [&sampler](Rng* shard_rng) { return sampler.Sample(shard_rng); });
}

Relation OneToOne(AttrSet attrs, AttrId a, AttrId b, size_t n) {
  CP_CHECK(attrs.Contains(a));
  CP_CHECK(attrs.Contains(b));
  CP_CHECK(a != b);
  Relation relation(attrs);
  relation.Reserve(n);
  uint32_t width = attrs.size();
  uint32_t col_a = relation.ColumnOf(a);
  uint32_t col_b = relation.ColumnOf(b);
  std::vector<Value> row(width, 0);
  for (size_t i = 0; i < n; ++i) {
    row[col_a] = i;
    row[col_b] = i;
    relation.AppendRow(std::span<const Value>(row));
  }
  return relation;
}

Instance UniformInstance(const Hypergraph& query, size_t n, uint64_t domain, Rng* rng) {
  Instance instance(query);
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    instance[e] = UniformRandom(query.edge(e).attrs, n, domain, rng);
  }
  return instance;
}

Instance MatchingInstance(const Hypergraph& query, size_t n) {
  Instance instance(query);
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    instance[e] = Matching(query.edge(e).attrs, n);
  }
  return instance;
}

Instance ZipfInstance(const Hypergraph& query, size_t n, uint64_t domain, double skew,
                      Rng* rng) {
  Instance instance(query);
  for (uint32_t e = 0; e < query.num_edges(); ++e) {
    instance[e] = Zipf(query.edge(e).attrs, n, domain, skew, rng);
  }
  return instance;
}

}  // namespace workload
}  // namespace coverpack

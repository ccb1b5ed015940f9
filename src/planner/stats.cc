#include "planner/stats.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace coverpack {
namespace planner {

namespace {

/// Smallest log2 domain (>= kMinLog2Domain) containing `value`.
uint32_t Log2DomainFor(Value value) {
  uint32_t log2_domain = kMinLog2Domain;
  while (log2_domain < 64 && (value >> log2_domain) != 0) ++log2_domain;
  return log2_domain;
}

constexpr uint32_t kLog2Buckets = 4;
static_assert(kHistogramBuckets == (1u << kLog2Buckets));
static_assert(kMinLog2Domain >= kLog2Buckets);

}  // namespace

void ColumnHistogram::WidenTo(uint32_t target_log2_domain) {
  CP_CHECK_LE(target_log2_domain, 64u);
  while (log2_domain < target_log2_domain) {
    // One doubling: narrow buckets 2i and 2i+1 tile exactly wide bucket i
    // (both domains are powers of two with the same bucket count), so the
    // fold is exact — no row is attributed to a different value range.
    std::array<uint64_t, kHistogramBuckets> folded{};
    for (uint32_t i = 0; i < kHistogramBuckets / 2; ++i) {
      folded[i] = buckets[2 * i] + buckets[2 * i + 1];
    }
    buckets = folded;
    ++log2_domain;
  }
}

void ColumnHistogram::Add(Value value) {
  WidenTo(Log2DomainFor(value));
  buckets[value >> (log2_domain - kLog2Buckets)] += 1;
  rows += 1;
  max_value = std::max(max_value, value);
}

uint64_t ColumnHistogram::Digest() const {
  uint64_t h = HashCombine(log2_domain, rows);
  h = HashCombine(h, max_value);
  for (uint64_t bucket : buckets) h = HashCombine(h, bucket);
  return h;
}

ColumnHistogram MergeHistograms(const ColumnHistogram& a, const ColumnHistogram& b) {
  ColumnHistogram merged = a;
  ColumnHistogram widened = b;
  const uint32_t target = std::max(a.log2_domain, b.log2_domain);
  merged.WidenTo(target);
  widened.WidenTo(target);
  for (uint32_t i = 0; i < kHistogramBuckets; ++i) {
    merged.buckets[i] += widened.buckets[i];
  }
  merged.rows += widened.rows;
  if (a.rows == 0) {
    merged.max_value = widened.max_value;
  } else if (widened.rows > 0) {
    merged.max_value = std::max(a.max_value, widened.max_value);
  }
  return merged;
}

uint64_t ColumnStats::Digest() const {
  uint64_t h = HashCombine(rows, distinct);
  h = HashCombine(h, max_degree);
  return HashCombine(h, histogram.Digest());
}

const ColumnStats& RelationStats::ColumnFor(AttrId attr) const {
  for (const ColumnStats& column : columns) {
    if (column.attr == attr) return column;
  }
  CP_CHECK(false) << "no stats for attribute " << attr;
  return columns.front();  // unreachable
}

uint64_t RelationStats::Digest() const {
  std::vector<uint64_t> digests;
  digests.reserve(columns.size());
  for (const ColumnStats& column : columns) digests.push_back(column.Digest());
  // Sorted: the digest must not depend on attribute order, so isomorphic
  // relations under attribute renaming agree.
  std::sort(digests.begin(), digests.end());
  return HashCombine(rows, HashVector(digests));
}

std::vector<uint64_t> StatsSnapshot::RelationSizes() const {
  std::vector<uint64_t> sizes;
  sizes.reserve(relations.size());
  for (const RelationStats& relation : relations) sizes.push_back(relation.rows);
  return sizes;
}

std::string StatsSnapshot::ToString(const Hypergraph& query) const {
  std::ostringstream out;
  for (size_t e = 0; e < relations.size(); ++e) {
    const RelationStats& relation = relations[e];
    out << query.edge(static_cast<EdgeId>(e)).name << "[rows=" << relation.rows << "]";
    for (const ColumnStats& column : relation.columns) {
      out << " " << query.attr_name(column.attr) << "(d=" << column.distinct
          << ",max=" << column.max_degree << ")";
    }
    out << "\n";
  }
  return out.str();
}

RelationStats BuildRelationStats(const Relation& relation) {
  RelationStats stats;
  stats.rows = relation.size();
  const std::vector<AttrId> attrs = relation.attrs().ToVector();
  stats.columns.resize(attrs.size());

  std::vector<Value> values(relation.size());
  for (size_t c = 0; c < attrs.size(); ++c) {
    ColumnStats& column = stats.columns[c];
    column.attr = attrs[c];
    column.rows = relation.size();

    Value max_value = 0;
    for (size_t i = 0; i < values.size(); ++i) {
      values[i] = relation.row(i)[c];
      max_value = std::max(max_value, values[i]);
    }
    // The final domain is known up front, so every value is bucketed there
    // directly: equal to the Add()-built histogram, because widening folds
    // buckets exactly.
    ColumnHistogram& histogram = column.histogram;
    histogram.log2_domain = Log2DomainFor(max_value);
    histogram.rows = values.size();
    histogram.max_value = max_value;
    const uint32_t shift = histogram.log2_domain - kLog2Buckets;
    for (Value value : values) histogram.buckets[value >> shift] += 1;

    // Distinct count and max degree are run lengths of the sorted column.
    std::sort(values.begin(), values.end());
    for (size_t i = 0; i < values.size();) {
      size_t run_end = i + 1;
      while (run_end < values.size() && values[run_end] == values[i]) ++run_end;
      column.distinct += 1;
      column.max_degree = std::max<uint64_t>(column.max_degree, run_end - i);
      i = run_end;
    }

    uint64_t bucket_rows = 0;
    for (uint64_t bucket : histogram.buckets) bucket_rows += bucket;
    CP_DCHECK_EQ(bucket_rows, column.rows);
    CP_DCHECK_LE(column.distinct, column.rows);
    CP_DCHECK_LE(column.max_degree, column.rows);
    CP_DCHECK_EQ(column.distinct > 0, column.rows > 0);
  }
  return stats;
}

StatsSnapshot BuildStatsSnapshot(const Hypergraph& query, const Instance& instance) {
  CP_CHECK_EQ(instance.num_relations(), query.num_edges());
  StatsSnapshot snapshot;
  snapshot.relations.reserve(instance.num_relations());
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    snapshot.relations.push_back(BuildRelationStats(instance[e]));
    snapshot.max_relation_rows =
        std::max(snapshot.max_relation_rows, snapshot.relations.back().rows);
    snapshot.total_rows += snapshot.relations.back().rows;
  }
  return snapshot;
}

uint64_t SnapshotSignature(const std::vector<uint64_t>& edge_colors,
                           const StatsSnapshot& snapshot, uint64_t base_signature) {
  CP_CHECK_EQ(edge_colors.size(), snapshot.relations.size());
  // (canonical edge color, relation content digest) pairs, sorted: two
  // isomorphic instances place equal digests on equal color classes no
  // matter how their edges were ordered or named.
  std::vector<std::pair<uint64_t, uint64_t>> pairs;
  pairs.reserve(edge_colors.size());
  for (size_t e = 0; e < edge_colors.size(); ++e) {
    pairs.emplace_back(edge_colors[e], snapshot.relations[e].Digest());
  }
  std::sort(pairs.begin(), pairs.end());
  uint64_t h = base_signature;
  for (const auto& [color, digest] : pairs) {
    h = HashCombine(HashCombine(h, color), digest);
  }
  return h;
}

}  // namespace planner
}  // namespace coverpack

#include "planner/stats.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace coverpack {
namespace planner {

uint64_t ColumnStats::Digest() const {
  return HashCombine(HashCombine(rows, distinct), max_degree);
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

    for (size_t i = 0; i < values.size(); ++i) values[i] = relation.row(i)[c];

    // Distinct count and max degree are run lengths of the sorted column.
    std::sort(values.begin(), values.end());
    for (size_t i = 0; i < values.size();) {
      size_t run_end = i + 1;
      while (run_end < values.size() && values[run_end] == values[i]) ++run_end;
      column.distinct += 1;
      column.max_degree = std::max<uint64_t>(column.max_degree, run_end - i);
      i = run_end;
    }

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
                           const StatsSnapshot& snapshot) {
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
  uint64_t h = 0;
  for (const auto& [color, digest] : pairs) {
    h = HashCombine(HashCombine(h, color), digest);
  }
  return h;
}

}  // namespace planner
}  // namespace coverpack

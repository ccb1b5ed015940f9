/// \file skew_resilient_pipeline.cpp
/// \brief Algorithm bake-off on a skewed analytics workload.
///
/// Scenario: a star-schema analytics join over a heavy-tailed fact table
/// (one celebrity user owns a large fraction of the events). We compare
/// four engines at the same server count:
///   1. vanilla one-round HyperCube          (collapses under skew),
///   2. skew-aware one-round (BinHC-style)   (recovers, one round),
///   3. parallel Yannakakis                  (pays for the output),
///   4. the paper's multi-round algorithm    (Theorem 5 load).
///
///   $ ./skew_resilient_pipeline

#include <iostream>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/yannakakis.h"
#include "query/parser.h"
#include "relation/oracle.h"
#include "util/table_printer.h"
#include "workload/generators.h"

int main() {
  using namespace coverpack;

  // Events(User, Item) |><| Profiles(User, Region) |><| Items(Item, Cat).
  Hypergraph query = ParseQuery("Events(User,Item), Profiles(User,Region), Items(Item,Cat)");
  std::cout << "workload: " << query.ToString() << "\n";

  // Heavy-tailed events: celebrity user 0 produces 30% of all events, and
  // their profile is multi-homed across thousands of regions, so the join
  // key User is heavy on *both* sides — the case that breaks a one-round
  // hash grid (every server of user 0's slice receives all their rows).
  uint64_t n = 20000;
  Rng rng(7);
  Instance instance(query);
  {
    AttrSet events_attrs = query.edge(0).attrs;
    Relation& events = instance[0];
    for (Value i = 0; i < n * 3 / 10; ++i) {
      events.AppendRow({0, i % 8000});  // the celebrity user, distinct items
    }
    Relation tail = workload::Zipf(events_attrs, n - n * 3 / 10, 3000, 0.7, &rng);
    for (size_t i = 0; i < tail.size(); ++i) events.AppendRow(tail.row(i));
    events.Dedup();
  }
  for (Value r = 0; r < 8000; ++r) instance[1].AppendRow({0, r});  // celebrity regions
  for (Value u = 1; u < 3000; ++u) instance[1].AppendRow({u, u % 40});
  for (Value i = 0; i < 8000; ++i) instance[2].AppendRow({i, i % 25});

  uint32_t p = 64;
  uint64_t out = JoinCount(query, instance);
  std::cout << "N = " << instance.MaxRelationSize() << ", OUT = " << out << ", p = " << p
            << "\n\n";

  TablePrinter table({"engine", "rounds", "max load", "notes"});

  RunResult vanilla = ComputeOneRoundVanilla(query, instance, p, /*collect=*/false);
  table.AddRow({"hypercube (vanilla)", "1", std::to_string(vanilla.max_load),
                "celebrity user lands on one grid slice"});

  OneRoundOptions or_options;
  or_options.collect = false;
  RunResult aware = ComputeOneRoundSkewAware(query, instance, p, or_options);
  table.AddRow({"one-round skew-aware", "1", std::to_string(aware.max_load),
                "heavy users split into residual hypercubes"});

  RunResult yan = ComputeYannakakis(query, instance, p, /*collect=*/false);
  table.AddRow({"parallel yannakakis", std::to_string(yan.rounds),
                std::to_string(yan.max_load), "communicates intermediate results"});

  AcyclicRunOptions options;
  options.policy = RunPolicy::kOptimal;
  options.collect = false;
  options.p = p;
  AcyclicRunResult multi = ComputeAcyclicJoin(query, instance, options);
  table.AddRow({"multi-round (Theorem 5)", std::to_string(multi.rounds),
                std::to_string(multi.max_load),
                "worst-case optimal: N / p^(1/rho*) = N / p^(1/2)"});

  table.Print(std::cout);

  bool resilient = aware.max_load < vanilla.max_load;
  std::cout << "\nskew handling pays off: " << (resilient ? "yes" : "no")
            << "; the multi-round engine holds the Theorem 5 guarantee regardless of skew.\n";
  return 0;
}

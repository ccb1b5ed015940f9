/// \file service_test.cc
/// \brief Unit tests for src/service/: shape canonicalization (isomorphic
/// hypergraphs hash identically, non-isomorphic ones don't), the
/// structure-keyed PlanCache, the lease allocator and event queue, the
/// simulated clients, and the query service end to end.

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/load_planner.h"
#include "query/catalog.h"
#include "query/join_tree.h"
#include "query/parser.h"
#include "relation/instance.h"
#include "service/plan_cache.h"
#include "service/query_service.h"
#include "service/query_shape.h"
#include "service/scheduler.h"
#include "service/workload_sim.h"
#include "workload/generators.h"

namespace coverpack {
namespace {

using service::ArrivalMode;
using service::CachedPlan;
using service::CanonicalizeShape;
using service::ClientSim;
using service::LeaseManager;
using service::PlanCache;
using service::PlanCacheKey;
using service::QueryShapeHash;
using service::ShapeCanon;
using service::SimEvent;
using service::SimEventKind;
using service::SimEventQueue;
using service::StatsSignature;
using service::SubClusterLease;

/// An instance whose relation e holds sizes[e] matching rows (v, v, ...).
Instance SizedInstance(const Hypergraph& query, const std::vector<uint64_t>& sizes) {
  Instance instance(query);
  for (size_t e = 0; e < query.num_edges(); ++e) {
    const size_t width = instance[static_cast<EdgeId>(e)].width();
    for (uint64_t v = 0; v < sizes[e]; ++v) {
      std::vector<Value> row(width, v);
      instance[static_cast<EdgeId>(e)].AppendRow(row);
    }
  }
  return instance;
}

// ---------------------------------------------------------------- shapes

TEST(QueryShapeTest, PermutedAttributeNamesHashIdentically) {
  // Line3 is Path(3) with attributes renamed A..D -> X0..X3.
  const ShapeCanon path = CanonicalizeShape(catalog::Path(3));
  const ShapeCanon line = CanonicalizeShape(catalog::Line3());
  EXPECT_EQ(path.hash, line.hash);
  EXPECT_EQ(path.canonical_form, line.canonical_form);
  EXPECT_EQ(path.num_attrs, 4u);
  EXPECT_EQ(path.num_edges, 3u);
}

TEST(QueryShapeTest, RelationOrderAndNamesAreIrrelevant) {
  const uint64_t triangle = QueryShapeHash(catalog::Triangle());
  // Same triangle: relations listed in a different order, all names new.
  EXPECT_EQ(triangle, QueryShapeHash(ParseQuery("S9(P,Q), S2(Q,R), S5(R,P)")));
  // Star(3) with permuted leaf insertion order and renamed center.
  EXPECT_EQ(QueryShapeHash(catalog::Star(3)),
            QueryShapeHash(ParseQuery("T3(H,C), T1(H,A), T2(H,B)")));
}

TEST(QueryShapeTest, NonIsomorphicShapesSeparate) {
  EXPECT_NE(QueryShapeHash(catalog::Triangle()), QueryShapeHash(catalog::Path(3)));
  EXPECT_NE(QueryShapeHash(catalog::Star(3)), QueryShapeHash(catalog::StarDual(3)));
  EXPECT_NE(QueryShapeHash(catalog::Path(4)), QueryShapeHash(catalog::Cycle(4)));
}

TEST(QueryShapeTest, IndividualizationSeparatesWlEquivalentPairs) {
  // Every attribute has degree 2 and every edge arity 2 in both queries, so
  // plain color refinement cannot tell one 6-cycle from two disjoint
  // triangles; the individualization sweep must.
  const Hypergraph six_cycle = catalog::Cycle(6);
  const Hypergraph two_triangles =
      ParseQuery("R1(A,B), R2(B,C), R3(C,A), R4(D,E), R5(E,F), R6(F,D)");
  EXPECT_NE(QueryShapeHash(six_cycle), QueryShapeHash(two_triangles));
  EXPECT_NE(CanonicalizeShape(six_cycle).canonical_form,
            CanonicalizeShape(two_triangles).canonical_form);
}

TEST(QueryShapeTest, StatsSignatureFollowsShapePositions) {
  const Hypergraph path = catalog::Path(3);
  const Hypergraph line = catalog::Line3();
  const ShapeCanon path_canon = CanonicalizeShape(path);
  const ShapeCanon line_canon = CanonicalizeShape(line);
  // Isomorphic queries with equal sizes at equivalent positions agree.
  EXPECT_EQ(StatsSignature(path_canon, SizedInstance(path, {10, 20, 10})),
            StatsSignature(line_canon, SizedInstance(line, {10, 20, 10})));
  // Changing any size changes the signature.
  EXPECT_NE(StatsSignature(path_canon, SizedInstance(path, {10, 20, 10})),
            StatsSignature(path_canon, SizedInstance(path, {10, 20, 11})));
}

TEST(QueryShapeTest, SizeUniformityPerColorClass) {
  const Hypergraph triangle = catalog::Triangle();
  const ShapeCanon canon = CanonicalizeShape(triangle);
  // All three triangle edges are structurally equivalent: uniform sizes are
  // cache-safe, mixed sizes within the class are not.
  EXPECT_TRUE(service::SizesUniformPerColorClass(canon, SizedInstance(triangle, {7, 7, 7})));
  EXPECT_FALSE(
      service::SizesUniformPerColorClass(canon, SizedInstance(triangle, {7, 7, 9})));
  // Structurally distinct edges may differ in size freely: in the semi-join
  // example the binary R2 is its own class, but the two unary relations
  // R1/R3 are symmetric to each other.
  const Hypergraph semi = catalog::SemiJoinExample();
  const ShapeCanon semi_canon = CanonicalizeShape(semi);
  EXPECT_TRUE(service::SizesUniformPerColorClass(semi_canon, SizedInstance(semi, {5, 50, 5})));
  EXPECT_FALSE(
      service::SizesUniformPerColorClass(semi_canon, SizedInstance(semi, {5, 50, 6})));
}

// ----------------------------------------------------------------- cache

CachedPlan PlanWithForm(const std::string& form, uint64_t threshold) {
  CachedPlan plan;
  plan.canonical_form = form;
  plan.load_threshold = threshold;
  return plan;
}

TEST(PlanCacheTest, HitMissInsertAndLruEviction) {
  PlanCache cache(2);
  const PlanCacheKey a{1, 64, 10};
  const PlanCacheKey b{2, 64, 20};
  const PlanCacheKey c{3, 64, 30};

  EXPECT_FALSE(cache.Lookup(a, "fa").has_value());
  cache.Insert(a, PlanWithForm("fa", 111));
  cache.Insert(b, PlanWithForm("fb", 222));
  ASSERT_TRUE(cache.Lookup(a, "fa").has_value());  // refreshes a over b
  cache.Insert(c, PlanWithForm("fc", 333));        // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup(b, "fb").has_value());
  EXPECT_EQ(cache.Lookup(a, "fa")->load_threshold, 111u);
  EXPECT_EQ(cache.Lookup(c, "fc")->load_threshold, 333u);

  const service::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 2u);  // the initial a miss and the evicted b miss
  EXPECT_EQ(stats.insertions, 3u);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.size, 2u);
  EXPECT_EQ(stats.capacity, 2u);
}

TEST(PlanCacheTest, CanonicalFormGuardsHashCollisions) {
  PlanCache cache(4);
  const PlanCacheKey key{42, 64, 7};
  cache.Insert(key, PlanWithForm("real-form", 1));
  // Same key, different canonical form: must NOT be served; counted as a
  // collision and a miss.
  EXPECT_FALSE(cache.Lookup(key, "colliding-form").has_value());
  const service::PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.collisions, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
}

TEST(PlanCacheTest, ClearResetsEntriesAndCounters) {
  PlanCache cache(2);
  cache.Insert({1, 64, 1}, PlanWithForm("f", 9));
  cache.Clear();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(cache.stats().insertions, 0u);
  EXPECT_FALSE(cache.Lookup({1, 64, 1}, "f").has_value());
}

// ------------------------------------------------------------- scheduler

TEST(LeaseManagerTest, FirstFitExhaustionAndCoalescing) {
  LeaseManager leases(192);
  auto a = leases.Acquire(64);
  auto b = leases.Acquire(64);
  auto c = leases.Acquire(64);
  ASSERT_TRUE(a && b && c);
  EXPECT_EQ(a->first_server, 0u);
  EXPECT_EQ(b->first_server, 64u);
  EXPECT_EQ(c->first_server, 128u);
  EXPECT_FALSE(leases.Acquire(1).has_value());
  EXPECT_EQ(leases.peak_leased(), 192u);

  // Releasing b then a must coalesce [0,128) into one hole.
  leases.Release(*b);
  leases.Release(*a);
  auto wide = leases.Acquire(128);
  ASSERT_TRUE(wide.has_value());
  EXPECT_EQ(wide->first_server, 0u);
  EXPECT_EQ(leases.leased(), 192u);
  leases.Release(*wide);
  leases.Release(*c);
  EXPECT_EQ(leases.leased(), 0u);
  auto all = leases.Acquire(192);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->first_server, 0u);
}

TEST(LeaseManagerTest, ChurnKeepsTheFreeMapCoalescedAndFirstFit) {
  // Deterministic churn: fragment the pool with interleaved grants, punch
  // holes in varying patterns, and refill; the free map must stay exact
  // (every release coalesces, every acquire is lowest-address first-fit).
  LeaseManager leases(100);
  std::vector<SubClusterLease> held;
  for (int round = 0; round < 50; ++round) {
    const uint32_t size = 1 + static_cast<uint32_t>((round * 7) % 13);
    auto lease = leases.Acquire(size);
    if (lease.has_value()) held.push_back(*lease);
    // Release a varying interior victim to fragment the free map.
    if (held.size() >= 3 && round % 3 == 0) {
      const size_t victim = (round / 3) % (held.size() - 1);
      leases.Release(held[victim]);
      held.erase(held.begin() + static_cast<long>(victim));
    }
  }
  uint32_t held_total = 0;
  for (const auto& lease : held) held_total += lease.size;
  EXPECT_EQ(leases.leased(), held_total);
  // Drain in an order unrelated to acquisition order; everything must
  // coalesce back into the single interval [0, 100).
  while (!held.empty()) {
    const size_t victim = held.size() / 2;
    leases.Release(held[victim]);
    held.erase(held.begin() + static_cast<long>(victim));
  }
  EXPECT_EQ(leases.leased(), 0u);
  EXPECT_EQ(leases.leased_capacity(), 0.0);
  auto all = leases.Acquire(100);
  ASSERT_TRUE(all.has_value());
  EXPECT_EQ(all->first_server, 0u);
}

TEST(LeaseManagerTest, CapacityGrantsMatchCountGrantsUnderUniformSpeeds) {
  LeaseManager by_count(48);
  LeaseManager by_capacity(48);
  by_capacity.SetSpeeds(std::vector<double>(48, 1.0));
  std::vector<SubClusterLease> count_leases, capacity_leases;
  const uint32_t sizes[] = {5, 7, 5, 11, 3, 5};
  for (uint32_t size : sizes) {
    auto lease = by_count.Acquire(size);
    auto cap = by_capacity.AcquireCapacity(static_cast<double>(size));
    ASSERT_EQ(lease.has_value(), cap.has_value());
    EXPECT_EQ(lease->first_server, cap->first_server);
    EXPECT_EQ(lease->size, cap->size);
    count_leases.push_back(*lease);
    capacity_leases.push_back(*cap);
  }
  // Punch the same holes and re-grant: placements must keep agreeing.
  by_count.Release(count_leases[1]);
  by_capacity.Release(capacity_leases[1]);
  by_count.Release(count_leases[3]);
  by_capacity.Release(capacity_leases[3]);
  auto refit = by_count.Acquire(6);
  auto refit_cap = by_capacity.AcquireCapacity(6.0);
  ASSERT_TRUE(refit && refit_cap);
  EXPECT_EQ(refit->first_server, refit_cap->first_server);
  EXPECT_EQ(refit->size, refit_cap->size);
  EXPECT_EQ(by_count.leased(), by_capacity.leased());
  EXPECT_EQ(by_capacity.leased_capacity(),
            static_cast<double>(by_capacity.leased()));
}

TEST(LeaseManagerTest, CapacityGrantsTakeMinimalPrefixOfFastServers) {
  LeaseManager leases(9);
  leases.SetSpeeds({1.0, 1.0, 4.0, 1.0, 1.0, 1.0, 2.0, 2.0, 2.0});
  // 4 units of capacity: servers 0,1 contribute 2, server 2 tops it up.
  auto a = leases.AcquireCapacity(4.0);
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(a->first_server, 0u);
  EXPECT_EQ(a->size, 3u);
  EXPECT_EQ(leases.CapacityOf(*a), 6.0);
  EXPECT_EQ(leases.leased_capacity(), 6.0);
  // The next interval starts at server 3; unit speeds until server 6.
  auto b = leases.AcquireCapacity(3.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(b->first_server, 3u);
  EXPECT_EQ(b->size, 3u);
  auto c = leases.AcquireCapacity(6.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_EQ(c->first_server, 6u);
  EXPECT_EQ(c->size, 3u);
  // Pool exhausted in servers: capacity requests fail cleanly.
  EXPECT_FALSE(leases.AcquireCapacity(0.5).has_value());
  leases.Release(*a);
  leases.Release(*c);
  // Free intervals [0,3) and [6,9) each aggregate 6.0 — a 7-unit request
  // fails even though the fragmented free speed (12.0) would cover it:
  // leases are contiguous sub-clusters, never stitched across holes.
  EXPECT_FALSE(leases.AcquireCapacity(7.0).has_value());
  auto refit = leases.AcquireCapacity(5.5);
  ASSERT_TRUE(refit.has_value());
  EXPECT_EQ(refit->first_server, 0u);
  EXPECT_EQ(refit->size, 3u);  // 1 + 1 + 4 = 6 >= 5.5
  leases.Release(*b);
  leases.Release(*refit);
  EXPECT_EQ(leases.leased_capacity(), 0.0);
  EXPECT_EQ(leases.peak_capacity(), 15.0);  // a + b + c held concurrently
}

TEST(SimEventQueueTest, OrdersByTimeThenPushOrder) {
  SimEventQueue events;
  SimEvent e1{5, 0, SimEventKind::kArrival, 0, 0, 1};
  SimEvent e2{3, 0, SimEventKind::kArrival, 0, 0, 2};
  SimEvent e3{5, 0, SimEventKind::kCompletion, 0, 0, 3};
  events.Push(e1);
  events.Push(e2);
  events.Push(e3);
  EXPECT_EQ(events.PopMin().query_id, 2u);
  EXPECT_EQ(events.PopMin().query_id, 1u);  // tick 5: push order breaks the tie
  EXPECT_EQ(events.PopMin().query_id, 3u);
  EXPECT_TRUE(events.empty());
}

// --------------------------------------------------------------- clients

TEST(ClientSimTest, StreamsAreReplayableAndBounded) {
  service::WorkloadConfig config;
  config.queries_per_client = 16;
  ClientSim first(config, /*client_id=*/3, /*catalog_size=*/9);
  ClientSim second(config, /*client_id=*/3, /*catalog_size=*/9);
  ClientSim other(config, /*client_id=*/4, /*catalog_size=*/9);
  bool any_difference = false;
  for (int i = 0; i < 16; ++i) {
    const ClientSim::Draw a = first.NextArrival();
    const ClientSim::Draw b = second.NextArrival();
    const ClientSim::Draw c = other.NextArrival();
    EXPECT_EQ(a.delay_ticks, b.delay_ticks);
    EXPECT_EQ(a.catalog_index, b.catalog_index);
    EXPECT_LT(a.catalog_index, 9u);
    EXPECT_GE(a.delay_ticks, 1u);
    any_difference = any_difference || a.delay_ticks != c.delay_ticks ||
                     a.catalog_index != c.catalog_index;
  }
  EXPECT_TRUE(first.Done());
  EXPECT_TRUE(any_difference);  // distinct clients get split streams
}

TEST(ClientSimTest, BurstyModeAlternatesGapsAndBursts) {
  service::WorkloadConfig config;
  config.mode = ArrivalMode::kBursty;
  config.queries_per_client = 32;
  config.burst_length = 8;
  config.burst_gap_ticks = 512;
  ClientSim client(config, 0, 4);
  uint64_t gap_draws = 0;
  uint64_t unit_draws = 0;
  while (!client.Done()) {
    const uint64_t delay = client.NextArrival().delay_ticks;
    if (delay == 1) {
      ++unit_draws;
    } else {
      ++gap_draws;
    }
  }
  EXPECT_EQ(gap_draws, 4u);    // 32 queries / burst_length 8
  EXPECT_EQ(unit_draws, 28u);  // everything inside a burst is back-to-back
}

// ---------------------------------------------------------------- service

service::ServiceConfig SmallConfig(bool cache_enabled) {
  service::ServiceConfig config;
  config.total_servers = 64;
  config.servers_per_query = 16;
  config.cache_enabled = cache_enabled;
  config.workload.clients = 3;
  config.workload.queries_per_client = 4;
  config.workload.mean_interarrival_ticks = 16;
  config.workload.seed = 0xFEED;
  return config;
}

void RegisterSmallCatalog(service::QueryService* svc) {
  svc->RegisterQuery("path3", catalog::Path(3),
                     workload::MatchingInstance(catalog::Path(3), 256));
  svc->RegisterQuery("line3", catalog::Line3(),
                     workload::MatchingInstance(catalog::Line3(), 256));
  svc->RegisterQuery("triangle", catalog::Triangle(),
                     workload::MatchingInstance(catalog::Triangle(), 256));
}

TEST(QueryServiceTest, ServesEveryArrivalAndCountsCacheTraffic) {
  service::QueryService svc(SmallConfig(/*cache_enabled=*/true));
  RegisterSmallCatalog(&svc);
  const service::ServiceRunStats stats = svc.Run();
  EXPECT_EQ(stats.arrivals, 12u);
  EXPECT_EQ(stats.completed, 12u);
  EXPECT_EQ(stats.outcomes.size(), 12u);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 12u);
  EXPECT_GT(stats.cache.hits, 0u);  // 12 arrivals over <= 2 distinct keys
  EXPECT_LE(stats.cache.misses, 2u);
  EXPECT_EQ(stats.plan_bypasses, 0u);
  EXPECT_EQ(stats.load_mismatches, 0u);
  EXPECT_GT(stats.sim_end_ticks, 0u);
  EXPECT_GT(stats.throughput_qpk, 0.0);
  EXPECT_LE(stats.peak_servers_leased, 64u);
}

TEST(QueryServiceTest, WarmRunIsAllHitsWithIdenticalLoads) {
  service::QueryService svc(SmallConfig(/*cache_enabled=*/true));
  RegisterSmallCatalog(&svc);
  const service::ServiceRunStats cold = svc.Run();
  const service::ServiceRunStats warm = svc.Run();
  EXPECT_GT(cold.cache.misses, 0u);
  EXPECT_EQ(warm.cache.misses, 0u);
  EXPECT_EQ(warm.cache.insertions, 0u);
  EXPECT_EQ(warm.cache.hits, warm.arrivals);
  ASSERT_EQ(warm.entry_fingerprints.size(), cold.entry_fingerprints.size());
  for (size_t i = 0; i < warm.entry_fingerprints.size(); ++i) {
    if (cold.entry_fingerprints[i].executed && warm.entry_fingerprints[i].executed) {
      EXPECT_EQ(warm.entry_fingerprints[i], cold.entry_fingerprints[i]) << "entry " << i;
    }
  }
  // Hits never change answers, only planning ticks: warm finishes earlier.
  EXPECT_LE(warm.sim_end_ticks, cold.sim_end_ticks);
}

TEST(QueryServiceTest, DisabledCacheNeverTouchesIt) {
  service::QueryService svc(SmallConfig(/*cache_enabled=*/false));
  RegisterSmallCatalog(&svc);
  const service::ServiceRunStats stats = svc.Run();
  EXPECT_EQ(stats.arrivals, stats.completed);
  EXPECT_EQ(stats.cache.hits, 0u);
  EXPECT_EQ(stats.cache.misses, 0u);
  EXPECT_EQ(stats.cache.insertions, 0u);
}

TEST(QueryServiceTest, UncacheableEntriesBypassTheCache) {
  service::ServiceConfig config = SmallConfig(/*cache_enabled=*/true);
  service::QueryService svc(config);
  // Triangle with non-uniform sizes inside its symmetric edge class: must
  // be planned fresh on every arrival, never cached.
  svc.RegisterQuery("lopsided", catalog::Triangle(),
                    SizedInstance(catalog::Triangle(), {64, 64, 128}));
  const service::ServiceRunStats stats = svc.Run();
  EXPECT_EQ(stats.plan_bypasses, stats.arrivals);
  EXPECT_EQ(stats.cache.hits + stats.cache.misses, 0u);
  EXPECT_EQ(stats.load_mismatches, 0u);
}

TEST(QueryServiceTest, ClosedLoopCompletesItsBudget) {
  service::ServiceConfig config = SmallConfig(/*cache_enabled=*/true);
  config.workload.mode = ArrivalMode::kClosedLoop;
  service::QueryService svc(config);
  RegisterSmallCatalog(&svc);
  const service::ServiceRunStats stats = svc.Run();
  EXPECT_EQ(stats.arrivals, 12u);
  EXPECT_EQ(stats.completed, 12u);
  // Closed loop: a client never has two queries in flight, so the queue
  // can never exceed the client count.
  EXPECT_LE(stats.max_queue_depth, 3u);
}

TEST(QueryServiceTest, ServiceLoadsMatchStandalonePipelineRuns) {
  service::ServiceConfig config = SmallConfig(/*cache_enabled=*/true);
  service::QueryService svc(config);
  RegisterSmallCatalog(&svc);
  const service::ServiceRunStats stats = svc.Run();
  for (uint32_t i = 0; i < svc.catalog_size(); ++i) {
    if (!stats.entry_fingerprints[i].executed) continue;
    const service::RegisteredQuery& entry = svc.entry(i);
    const CachedPlan plan =
        service::ComputePlan(entry.query, entry.instance, config.servers_per_query,
                             entry.canon);
    const service::ExecutionResult standalone = service::ExecuteRegistered(
        entry.query, entry.instance, plan, config.servers_per_query, /*collect=*/false);
    EXPECT_EQ(stats.entry_fingerprints[i], standalone.fingerprint) << entry.name;
  }
}

TEST(QueryServiceTest, PlanThresholdIsTheorem4OnAcyclicAndZeroOnCyclic) {
  // The plan caches the cost table's Theorem 4 threshold; it must be the
  // very L core's PlanLoadOptimal plans from the instance, including under
  // unequal relation sizes, or a cache-hit run would differ from a
  // standalone auto-planned one.
  const struct {
    const char* name;
    Hypergraph query;
    std::vector<uint64_t> sizes;
  } kEntries[] = {
      {"path3", catalog::Path(3), {256, 64, 512}},
      {"star3", catalog::Star(3), {128, 128, 128}},
      {"semijoin", catalog::SemiJoinExample(), {32, 300, 40}},
      {"alpha_not_berge", catalog::AlphaNotBerge(), {100, 200, 300, 400}},
      {"triangle", catalog::Triangle(), {64, 64, 128}},
      {"cycle4", catalog::Cycle(4), {96, 96, 96, 96}},
  };
  for (const auto& entry : kEntries) {
    ASSERT_EQ(entry.sizes.size(), entry.query.num_edges()) << entry.name;
    const Instance instance = SizedInstance(entry.query, entry.sizes);
    for (uint32_t p : {4u, 16u, 64u}) {
      const CachedPlan plan =
          service::ComputePlan(entry.query, instance, p, CanonicalizeShape(entry.query));
      if (JoinTree::Build(entry.query).has_value()) {
        EXPECT_EQ(plan.load_threshold, PlanLoadOptimal(entry.query, instance, p))
            << entry.name << " p=" << p;
      } else {
        EXPECT_EQ(plan.load_threshold, 0u) << entry.name << " p=" << p;
      }
    }
  }
}

TEST(QueryServiceTest, UniformSpeedVectorIsIndistinguishableFromNoVector) {
  // Capacity-mode leasing with all-1.0 speeds must grant the same ranges
  // as historical count-based leasing, so the whole run digests equal.
  service::ServiceConfig with_speeds = SmallConfig(/*cache_enabled=*/true);
  with_speeds.server_speeds.assign(with_speeds.total_servers, 1.0);
  service::QueryService uniform(with_speeds);
  service::QueryService baseline(SmallConfig(/*cache_enabled=*/true));
  RegisterSmallCatalog(&uniform);
  RegisterSmallCatalog(&baseline);
  const service::ServiceRunStats a = uniform.Run();
  const service::ServiceRunStats b = baseline.Run();
  EXPECT_EQ(a.Digest(), b.Digest());
  EXPECT_EQ(a.peak_servers_leased, b.peak_servers_leased);
}

TEST(QueryServiceTest, FastServersShrinkTheLeaseFootprint) {
  // Speeds 2.0 everywhere: servers_per_query units of capacity fit in half
  // as many physical servers, so twice as many queries can run at once —
  // the lease footprint halves while every answer stays bit-identical.
  service::ServiceConfig fast = SmallConfig(/*cache_enabled=*/true);
  fast.server_speeds.assign(fast.total_servers, 2.0);
  service::QueryService doubled(fast);
  service::QueryService baseline(SmallConfig(/*cache_enabled=*/true));
  RegisterSmallCatalog(&doubled);
  RegisterSmallCatalog(&baseline);
  const service::ServiceRunStats a = doubled.Run();
  const service::ServiceRunStats b = baseline.Run();
  EXPECT_EQ(a.completed, b.completed);
  EXPECT_LE(a.peak_servers_leased, b.peak_servers_leased);
  ASSERT_EQ(a.entry_fingerprints.size(), b.entry_fingerprints.size());
  for (size_t i = 0; i < a.entry_fingerprints.size(); ++i) {
    if (a.entry_fingerprints[i].executed && b.entry_fingerprints[i].executed) {
      EXPECT_EQ(a.entry_fingerprints[i], b.entry_fingerprints[i]) << "entry " << i;
    }
  }
}

TEST(QueryServiceTest, DigestIsReproducibleAcrossIdenticalServices) {
  service::QueryService a(SmallConfig(/*cache_enabled=*/true));
  service::QueryService b(SmallConfig(/*cache_enabled=*/true));
  RegisterSmallCatalog(&a);
  RegisterSmallCatalog(&b);
  EXPECT_EQ(a.Run().Digest(), b.Run().Digest());
  EXPECT_EQ(a.Run().Digest(), b.Run().Digest());  // warm runs agree too
}

}  // namespace
}  // namespace coverpack

/// \file exchange_delivery_test.cc
/// \brief Pins the Exchange's sharded delivery to a serial reference: every
/// destination must hold exactly the rows, in exactly the order, that one
/// append per route in (source, row, emit) order gives, at pool sizes 1
/// and 4.

#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "mpc/cluster.h"
#include "mpc/exchange.h"
#include "relation/relation.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace mpc {
namespace {

/// `rows` rows of `width` values, row i holding first + i * 100 + c.
Relation MakeSequentialFrom(uint32_t width, size_t rows, Value first) {
  Relation r(AttrSet::FirstN(width));
  Value* out = r.AppendUninitialized(rows);
  for (size_t i = 0; i < rows; ++i) {
    for (uint32_t c = 0; c < width; ++c) *out++ = first + i * 100 + c;
  }
  return r;
}

/// One recorded source of a delivery layout and its route function.
struct RoutedSource {
  const Relation* relation;
  std::function<void(size_t, const std::function<void(uint64_t)>&)> route;
};

/// Delivers `sources` over `p` servers into destinations that start as
/// `initial`, source `src`'s server `s` writing into initial[dest(src, s)],
/// at pool sizes 1 and 4. Every destination must equal, size and raw()
/// byte for byte, the serial reference: one AppendRows per route, source by
/// source, row by row, emit by emit.
void ExpectDeliveryMatchesSerialReference(
    uint32_t p, const std::vector<RoutedSource>& sources, const std::vector<Relation>& initial,
    const std::function<size_t(size_t, uint32_t)>& dest) {
  std::vector<Relation> expected = initial;
  uint64_t routes = 0;
  for (size_t src = 0; src < sources.size(); ++src) {
    const Relation& relation = *sources[src].relation;
    for (size_t i = 0; i < relation.size(); ++i) {
      sources[src].route(i, [&](uint64_t server) {
        expected[dest(src, static_cast<uint32_t>(server))].AppendRows(
            relation.raw().data() + i * relation.width(), 1);
        ++routes;
      });
    }
  }
  const unsigned saved_threads = ThreadPool::GlobalThreads();
  for (unsigned threads : {1u, 4u}) {
    ThreadPool::SetGlobalThreads(threads);
    std::vector<Relation> delivered = initial;
    ExchangePlan plan(p);
    for (const RoutedSource& source : sources) {
      plan.AddSource(*source.relation, /*record=*/true, source.route);
    }
    Cluster cluster(p);
    const ExchangeStats stats = Exchange::Execute(
        &cluster, 0, plan,
        [&](size_t src, uint32_t s) { return &delivered[dest(src, s)]; }, "test");
    EXPECT_EQ(stats.delivered, routes) << threads << " threads";
    for (size_t d = 0; d < expected.size(); ++d) {
      EXPECT_EQ(delivered[d].size(), expected[d].size())
          << "destination " << d << " at " << threads << " threads";
      EXPECT_TRUE(delivered[d].raw() == expected[d].raw())
          << "destination " << d << " at " << threads << " threads";
    }
  }
  ThreadPool::SetGlobalThreads(saved_threads);
}

TEST(ExchangeTest, ServersSharingADestinationKeepInterleavedRouteOrder) {
  // Servers 0 and 1 feed destination 0 and servers 2 and 3 destination 1,
  // with routes alternating between them inside every route shard.
  const Relation data = MakeSequentialFrom(2, 5000, 0);
  ExpectDeliveryMatchesSerialReference(
      4, {{&data, [](size_t i, const auto& emit) { emit(i % 4); }}},
      std::vector<Relation>(2, Relation(data.attrs())),
      [](size_t, uint32_t s) { return static_cast<size_t>(s / 2); });
}

TEST(ExchangeTest, SourcesIntoAFilledDestinationKeepSourceOrder) {
  // Three sources, two of them over several route shards, deliver into a
  // destination that already holds rows (servers 0 and 1) and an empty one
  // (server 2).
  const Relation first = MakeSequentialFrom(2, 3000, 1000000);
  const Relation second = MakeSequentialFrom(2, 700, 2000000);
  const Relation third = MakeSequentialFrom(2, 4500, 3000000);
  std::vector<Relation> initial(2, Relation(first.attrs()));
  initial[0] = MakeSequentialFrom(2, 3, 7);
  auto spread = [](size_t i, const auto& emit) { emit((i * 7) % 3); };
  ExpectDeliveryMatchesSerialReference(
      3, {{&first, spread}, {&second, spread}, {&third, spread}}, initial,
      [](size_t, uint32_t s) { return s == 2 ? size_t{1} : 0; });
}

TEST(ExchangeTest, ReplicatedEmitsKeepHypercubeCellOrder) {
  // Two relations over a 3 x 3 grid, as HypercubeJoin routes them: each
  // row is bound to one coordinate and replicated along the other, and
  // every (cell, relation) pair has its own destination.
  constexpr uint32_t kSide = 3;
  const Relation left = MakeSequentialFrom(2, 5000, 0);
  const Relation right = MakeSequentialFrom(2, 4200, 5000000);
  auto rows_bound = [](size_t i, const auto& emit) {
    for (uint32_t free = 0; free < kSide; ++free) emit(((i * 5) % kSide) * kSide + free);
  };
  auto columns_bound = [](size_t i, const auto& emit) {
    for (uint32_t free = 0; free < kSide; ++free) emit(free * kSide + (i * 11) % kSide);
  };
  ExpectDeliveryMatchesSerialReference(
      kSide * kSide, {{&left, rows_bound}, {&right, columns_bound}},
      std::vector<Relation>(2 * kSide * kSide, Relation(left.attrs())),
      [](size_t src, uint32_t s) { return src * kSide * kSide + s; });
}

TEST(ExchangeTest, ZeroWidthRowsKeepTheirCountsAtAnyPoolSize) {
  Relation nullary((AttrSet()));
  nullary.AppendUninitialized(5000);
  ExpectDeliveryMatchesSerialReference(
      3,
      {{&nullary,
        [](size_t i, const auto& emit) {
          emit(i % 3);
          if (i % 5 == 0) emit(2);
        }}},
      std::vector<Relation>(3, Relation(AttrSet())),
      [](size_t, uint32_t s) { return static_cast<size_t>(s); });
}

TEST(ExchangeTest, ManyShardSourceWithAShardThatSkipsAServer) {
  // Six route shards; the third sends server 3 nothing.
  const Relation data = MakeSequentialFrom(3, 5 * kExchangeRouteGrain + 100, 0);
  ASSERT_GE(ThreadPool::NumShards(0, data.size(), kExchangeRouteGrain), 5u);
  ExpectDeliveryMatchesSerialReference(
      4,
      {{&data,
        [](size_t i, const auto& emit) {
          const bool third_shard = i / kExchangeRouteGrain == 2;
          emit(third_shard && i % 4 == 3 ? 0 : i % 4);
        }}},
      std::vector<Relation>(4, Relation(data.attrs())),
      [](size_t, uint32_t s) { return static_cast<size_t>(s); });
}

}  // namespace
}  // namespace mpc
}  // namespace coverpack

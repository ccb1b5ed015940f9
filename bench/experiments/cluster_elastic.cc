/// \file cluster_elastic.cc
/// \brief Measures the heterogeneous/elastic cluster subsystem: speed-aware
/// placement vs the uniform baseline, and round-boundary membership changes
/// with audited state migration.
///
/// Claims checked, per speed spec and schedule:
///
///  1. **Placement dominance.** On every (p, speed spec) instance the
///     speed-aware placement's makespan is <= the uniform (identity)
///     placement's makespan — guaranteed by construction (identity is
///     always a candidate) and re-measured here — and each round's
///     makespan respects the proportional-share lower bound
///     T_r / sum(speeds).
///  2. **Exponent preserved.** The speed-aware makespan keeps Theorem 5's
///     N/p^(1/rho*) exponent on every speed spec: heterogeneity changes
///     constants, never the shape.
///  3. **Elastic correctness.** Join/leave schedules conserve every row
///     through the rebalancing Exchanges; a schedule whose events never
///     fire inside the run is byte-identical to the fixed-p run; and
///     speed-aware routing never loses to speed-oblivious routing on the
///     actual (heterogeneous) fleet.
///  4. **Chaos composition.** Re-running an elastic pipeline under a
///     crash-storm FaultPlan leaves the tracker and the final distributed
///     state bit-identical — migrations recover exactly like algorithm
///     exchanges.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cluster/cluster_profile.h"
#include "cluster/elastic.h"
#include "cluster/routing.h"
#include "core/acyclic_join.h"
#include "experiments/runners.h"
#include "lp/covers.h"
#include "query/catalog.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "util/logging.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

ClusterBenchOverrides g_cluster_overrides;

bool SameElasticState(const cluster::ElasticRunResult& a,
                      const cluster::ElasticRunResult& b) {
  return a.content_hash == b.content_hash && a.final_rows == b.final_rows &&
         a.final_shard_sizes == b.final_shard_sizes && a.tracker == b.tracker;
}

/// Equality modulo idle slots: an unfired schedule reserves extra slot ids
/// that never hold a row or a load, so comparisons against the fixed-p run
/// pad the narrower tracker/shard list with zeros.
bool SameElasticStateModuloIdle(const cluster::ElasticRunResult& a,
                                const cluster::ElasticRunResult& b) {
  if (a.content_hash != b.content_hash || a.final_rows != b.final_rows) return false;
  const size_t shards = std::max(a.final_shard_sizes.size(), b.final_shard_sizes.size());
  for (size_t s = 0; s < shards; ++s) {
    const size_t sa = s < a.final_shard_sizes.size() ? a.final_shard_sizes[s] : 0;
    const size_t sb = s < b.final_shard_sizes.size() ? b.final_shard_sizes[s] : 0;
    if (sa != sb) return false;
  }
  if (a.tracker.num_rounds() != b.tracker.num_rounds()) return false;
  const uint32_t servers = std::max(a.tracker.num_servers(), b.tracker.num_servers());
  for (uint32_t r = 0; r < a.tracker.num_rounds(); ++r) {
    for (uint32_t s = 0; s < servers; ++s) {
      const uint64_t la = s < a.tracker.num_servers() ? a.tracker.At(r, s) : 0;
      const uint64_t lb = s < b.tracker.num_servers() ? b.tracker.At(r, s) : 0;
      if (la != lb) return false;
    }
  }
  return true;
}

}  // namespace

void SetClusterBenchOverrides(const ClusterBenchOverrides& overrides) {
  g_cluster_overrides = overrides;
}

telemetry::RunReport RunClusterElastic(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  // --speeds / --elastic narrow the sweep to one point; defaults cover the
  // skew spectrum and the join/leave/mixed schedules.
  std::vector<std::string> spec_texts{"uniform", "halves:4", "geom:8", "seeded:7"};
  if (!g_cluster_overrides.speeds.empty()) spec_texts = {g_cluster_overrides.speeds};
  std::vector<std::string> schedule_texts{"none", "+2@2", "-2@3", "+2@2,-3@4"};
  if (!g_cluster_overrides.elastic.empty()) schedule_texts = {g_cluster_overrides.elastic};

  std::vector<cluster::SpeedSpec> specs;
  for (const std::string& text : spec_texts) {
    auto spec = cluster::ParseSpeedSpec(text);
    CP_CHECK(spec.has_value());
    specs.push_back(*spec);
  }
  std::vector<cluster::ElasticSpec> schedules;
  for (const std::string& text : schedule_texts) {
    auto schedule = cluster::ParseElasticSpec(text);
    CP_CHECK(schedule.has_value());
    schedules.push_back(*schedule);
  }

  const Hypergraph query = catalog::Line3();
  const uint64_t n = 20000;
  const Rational rho = RhoStar(query);
  const double theory_exponent = -1.0 / rho.ToDouble();
  const Instance instance = workload::MatchingInstance(query, n);
  const std::vector<uint32_t> ps{4, 16, 64, 256};

  report.AddParam("query", query.ToString());
  report.AddParam("N", n);
  report.AddParam("speed_specs", static_cast<uint64_t>(specs.size()));
  report.AddParam("schedules", static_cast<uint64_t>(schedules.size()));

  // --- Part A: speed-aware placement over the Line3 acyclic sweep. The
  // baseline run is speed-independent, so one run per p serves every spec.
  bool dominance_ok = true;
  bool lower_bound_ok = true;
  bool overload_ok = true;  // satellite: vector-speed SimulateMakespan agrees
  bool exponents_ok = true;
  uint64_t lpt_wins = 0;

  std::cout << "--- placement: line3 acyclic (rho* = " << rho << ", N = " << n << ")\n";
  TablePrinter placement_table(
      {"p", "speeds", "identity makespan", "chosen makespan", "speedup", "lpt won"});
  std::vector<AcyclicRunResult> baselines;
  for (uint32_t p : ps) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = false;
    options.p = p;
    baselines.push_back(ComputeAcyclicJoin(query, instance, options));
  }
  for (const cluster::SpeedSpec& spec : specs) {
    std::vector<double> xs;
    std::vector<double> ys;
    for (size_t pi = 0; pi < ps.size(); ++pi) {
      const uint32_t p = ps[pi];
      const AcyclicRunResult& baseline = baselines[pi];
      // Share rounding can charge a few more servers than the nominal p;
      // the fleet is sized to what the tracker actually used.
      const cluster::ClusterProfile profile(baseline.load_tracker.num_servers(), spec,
                                            cluster::ElasticSpec{});
      const std::vector<double> speeds =
          profile.NormalizedActiveSpeeds(profile.EpochForRound(0));

      const cluster::PlacementChoice choice =
          cluster::ChoosePlacement(baseline.load_tracker, speeds);
      if (choice.makespan > choice.identity_makespan + 1e-9) dominance_ok = false;
      if (choice.lpt_won) ++lpt_wins;

      // Satellite 1 in anger: the standalone-speed SimulateMakespan overload
      // must agree with the identity fold of the placement layer.
      const resilience::MakespanBreakdown direct =
          resilience::SimulateMakespan(baseline.load_tracker, speeds);
      if (std::abs(direct.makespan - choice.identity_makespan) >
          1e-6 * std::max(1.0, choice.identity_makespan)) {
        overload_ok = false;
      }

      // Proportional-share lower bound: no round can finish faster than its
      // total work spread across the whole fleet's aggregate speed.
      const cluster::FoldedMakespan folded = cluster::PlacementMakespan(
          baseline.load_tracker, choice.assignment, speeds);
      double speed_sum = 0.0;
      for (double s : speeds) speed_sum += s;
      for (uint32_t r = 0; r < baseline.load_tracker.num_rounds(); ++r) {
        uint64_t round_total = 0;
        for (uint32_t s = 0; s < baseline.load_tracker.num_servers(); ++s) {
          round_total += baseline.load_tracker.At(r, s);
        }
        const double bound = static_cast<double>(round_total) / speed_sum;
        if (folded.round_makespans[r] + 1e-9 < bound) lower_bound_ok = false;
      }

      xs.push_back(static_cast<double>(p));
      ys.push_back(choice.makespan);
      placement_table.AddRow(
          {std::to_string(p), spec.ToString(), FormatDouble(choice.identity_makespan, 1),
           FormatDouble(choice.makespan, 1),
           FormatDouble(choice.identity_makespan / std::max(choice.makespan, 1e-12), 3),
           choice.lpt_won ? "yes" : "no"});
    }
    const PowerLawFit fit = FitPowerLaw(xs, ys);
    exponents_ok = ReportExponent(report, "placement_makespan/" + spec.ToString(),
                                  fit.slope, theory_exponent, /*tolerance=*/0.15) &&
                   exponents_ok;
  }
  placement_table.Print(std::cout);
  report.metrics.AddCounter("placement.lpt_wins", lpt_wins);

  // --- Part B: elastic pipelines across the schedule sweep.
  bool conservation_ok = true;
  bool aware_ok = true;   // speed-aware routing <= oblivious on the real fleet
  bool fixed_ok = true;   // unfired schedules byte-identical to fixed p
  bool chaos_ok = true;   // crash storm leaves bytes identical
  bool migrated_ok = true;  // every non-trivial schedule actually migrated

  resilience::FaultSpec storm;
  storm.crash_rate = 0.10;
  storm.drop_rate = 0.002;
  storm.duplicate_rate = 0.002;
  storm.seed = ExperimentSeed(0xC1A05);
  report.AddParam("chaos_seed", storm.seed);

  std::cout << "--- elastic: base_p = 8, rows = 10000, 6 partition rounds\n";
  TablePrinter elastic_table({"speeds", "schedule", "epochs", "migrated", "aware makespan",
                              "oblivious makespan", "identical under chaos"});
  for (const cluster::SpeedSpec& spec : specs) {
    for (const cluster::ElasticSpec& schedule : schedules) {
      cluster::ElasticRunConfig config;
      config.speeds = spec;
      config.schedule = schedule;
      config.seed = ExperimentSeed(0x0e1a57ull);
      const cluster::ClusterProfile profile(config.base_p, spec, schedule);

      const cluster::ElasticRunResult aware = cluster::RunElasticPipeline(config);
      if (aware.final_rows != config.rows) conservation_ok = false;
      if (!schedule.empty() && aware.epochs > 1 && aware.tuples_migrated == 0) {
        migrated_ok = false;
      }

      cluster::ElasticRunConfig oblivious_config = config;
      oblivious_config.speed_aware = false;
      const cluster::ElasticRunResult oblivious =
          cluster::RunElasticPipeline(oblivious_config);
      if (oblivious.final_rows != config.rows) conservation_ok = false;

      // Both runs are costed on the *actual* fleet speeds; the speed-aware
      // router must never lose to the uniform-share baseline.
      std::vector<double> slot_speeds;
      for (uint32_t slot = 0; slot < profile.num_slots(); ++slot) {
        slot_speeds.push_back(profile.SpeedOfSlot(slot));
      }
      const resilience::MakespanBreakdown aware_span =
          resilience::SimulateMakespan(aware.tracker, slot_speeds);
      const resilience::MakespanBreakdown oblivious_span =
          resilience::SimulateMakespan(oblivious.tracker, slot_speeds);
      if (aware_span.makespan > oblivious_span.makespan + 1e-9) aware_ok = false;

      // Elastic machinery with no fired events must be byte-invisible.
      if (schedule.empty()) {
        cluster::ElasticRunConfig unfired_config = config;
        auto unfired_schedule = cluster::ParseElasticSpec("+3@99");
        CP_CHECK(unfired_schedule.has_value());
        unfired_config.schedule = *unfired_schedule;
        const cluster::ElasticRunResult unfired =
            cluster::RunElasticPipeline(unfired_config);
        if (!SameElasticStateModuloIdle(aware, unfired)) fixed_ok = false;
      }

      // Chaos composition: migrations recover like any other exchange.
      cluster::ElasticRunResult stormy;
      {
        resilience::ScopedFaultInjection injection(storm);
        stormy = cluster::RunElasticPipeline(config);
      }
      const bool chaos_identical = SameElasticState(aware, stormy);
      chaos_ok = chaos_ok && chaos_identical;

      elastic_table.AddRow({spec.ToString(), schedule.ToString(),
                            std::to_string(aware.epochs),
                            std::to_string(aware.tuples_migrated),
                            FormatDouble(aware_span.makespan, 1),
                            FormatDouble(oblivious_span.makespan, 1),
                            chaos_identical ? "yes" : "NO"});
    }
  }
  elastic_table.Print(std::cout);

  std::cout << "placement dominance on every instance: " << (dominance_ok ? "yes" : "NO")
            << "; proportional lower bound: " << (lower_bound_ok ? "yes" : "NO")
            << "; cost-model overloads agree: " << (overload_ok ? "yes" : "NO") << "\n";
  std::cout << "rows conserved through every migration: " << (conservation_ok ? "yes" : "NO")
            << "; schedules fired: " << (migrated_ok ? "yes" : "NO")
            << "; aware <= oblivious: " << (aware_ok ? "yes" : "NO")
            << "; unfired schedule byte-identical: " << (fixed_ok ? "yes" : "NO")
            << "; chaos byte-identical: " << (chaos_ok ? "yes" : "NO") << "\n";

  FinishReport(report, dominance_ok && lower_bound_ok && overload_ok && exponents_ok &&
                           conservation_ok && migrated_ok && aware_ok && fixed_ok &&
                           chaos_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack

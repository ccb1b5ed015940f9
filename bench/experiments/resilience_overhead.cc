/// \file resilience_overhead.cc
/// \brief Measures the resilience subsystem: recovery cost and makespan
/// under injected crashes, message corruption, and stragglers.
///
/// Three claims are checked, per workload and p:
///
///  1. **Bit-identical recovery.** Re-running an experiment under any
///     FaultPlan (crashes, drops, duplicates) yields exactly the fault-free
///     loads, rounds, and output counts — faults cost retries, never
///     answers.
///  2. **Bounded recovery cost.** Replaying a crashed server's round
///     re-sends at most its planned receive, which is at most the round's
///     bottleneck load: recovery.tuples_resent_crash <= crashes x L and
///     recovery.max_single_resend <= L.
///  3. **Makespan shape.** The heterogeneity cost model
///     makespan = sum_r max_s load(r,s)/speed_s collapses to the
///     round-summed load at uniform speeds — keeping Theorem 5's
///     N/p^(1/rho*) exponent — and under stragglers grows by at most the
///     severity factor.

#include <algorithm>
#include <cmath>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/acyclic_join.h"
#include "experiments/runners.h"
#include "lp/covers.h"
#include "mpc/hypercube.h"
#include "query/catalog.h"
#include "resilience/cost_model.h"
#include "resilience/fault_injector.h"
#include "util/ledger.h"
#include "workload/generators.h"

namespace coverpack {
namespace bench {

namespace {

/// One fault schedule of the sweep.
struct FaultConfig {
  const char* name;
  resilience::FaultSpec spec;
};

/// Growth of the ledger's counter `name` since `before` was read.
uint64_t Grown(const Metrics& before, const char* name) {
  return Ledger::Global().Read(name).CounterValue(name) - before.CounterValue(name);
}

}  // namespace

telemetry::RunReport RunResilienceOverhead(const Experiment& e) {
  telemetry::RunReport report = MakeReport(e);
  Banner(e.title, e.claim);

  const Hypergraph query = catalog::Line3();
  const uint64_t n = 20000;
  const Rational rho = RhoStar(query);
  const double theory_exponent = -1.0 / rho.ToDouble();
  const Instance instance = workload::MatchingInstance(query, n);
  const std::vector<uint32_t> ps{4, 16, 64, 256};
  const uint64_t fault_seed = ExperimentSeed(0xC0FFEE);

  std::vector<FaultConfig> configs;
  {
    FaultConfig crash_light{"crash2%", {}};
    crash_light.spec.crash_rate = 0.02;
    FaultConfig crash_heavy{"crash10%", {}};
    crash_heavy.spec.crash_rate = 0.10;
    FaultConfig corrupt{"drop+dup", {}};
    corrupt.spec.drop_rate = 0.002;
    corrupt.spec.duplicate_rate = 0.002;
    FaultConfig straggle{"straggle8x", {}};
    straggle.spec.straggler_rate = 0.25;
    straggle.spec.straggler_severity = 8.0;
    FaultConfig mixed{"crash5%+straggle", {}};
    mixed.spec.crash_rate = 0.05;
    mixed.spec.straggler_rate = 0.25;
    mixed.spec.straggler_severity = 8.0;
    configs = {crash_light, crash_heavy, corrupt, straggle, mixed};
    for (FaultConfig& config : configs) config.spec.seed = fault_seed;
  }
  report.AddParam("query", query.ToString());
  report.AddParam("N", n);
  report.AddParam("fault_seed", fault_seed);
  report.AddParam("configs", static_cast<uint64_t>(configs.size()));
  {
    telemetry::JsonValue p_grid = telemetry::JsonValue::Array();
    for (uint32_t p : ps) p_grid.Append(telemetry::JsonValue::Uint(p));
    report.params.Set("p_sweep", std::move(p_grid));
  }

  bool identical_ok = true;
  bool resend_ok = true;
  bool makespan_ok = true;
  uint64_t max_baseline_load = 0;
  std::vector<double> xs;
  std::vector<double> ys;

  std::cout << "--- line3 acyclic runs (rho* = " << rho << ", N = " << n << ")\n";
  TablePrinter table({"p", "config", "crashes", "retries", "resent", "resent/crash cap",
                      "identical", "slowdown"});
  for (uint32_t p : ps) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = false;
    options.p = p;
    const AcyclicRunResult baseline = ComputeAcyclicJoin(query, instance, options);
    ProfileRun(report, "baseline/p" + std::to_string(p), baseline.load_tracker);
    max_baseline_load = std::max(max_baseline_load, baseline.max_load);

    // Claim 3, uniform part: at speed 1 the makespan is the round-summed
    // bottleneck load; with O(1) rounds its exponent in p is -1/rho*.
    const resilience::MakespanBreakdown uniform =
        resilience::SimulateMakespan(baseline.load_tracker, resilience::FaultPlan());
    if (uniform.slowdown != 1.0) makespan_ok = false;
    xs.push_back(static_cast<double>(p));
    ys.push_back(uniform.makespan);

    for (const FaultConfig& config : configs) {
      const Metrics before = Ledger::Global().Read();
      AcyclicRunResult faulted;
      {
        resilience::ScopedFaultInjection injection(config.spec);
        faulted = ComputeAcyclicJoin(query, instance, options);
      }
      const uint64_t crashes = Grown(before, "fault.crashes");

      // Claim 1: recovery is invisible in every measured quantity.
      const bool identical = baseline.load_tracker == faulted.load_tracker &&
                             baseline.max_load == faulted.max_load &&
                             baseline.rounds == faulted.rounds &&
                             baseline.output_count == faulted.output_count &&
                             baseline.servers_used == faulted.servers_used;
      identical_ok = identical_ok && identical;

      // Claim 2: each crash re-sends at most one round's bottleneck load.
      const uint64_t resend_cap = crashes * baseline.max_load;
      if (Grown(before, "recovery.tuples_resent_crash") > resend_cap) resend_ok = false;

      // Claim 3, straggler part: the makespan is monotone in the straggler
      // schedule and bounded by severity x the uniform makespan.
      const resilience::MakespanBreakdown hetero = resilience::SimulateMakespan(
          baseline.load_tracker, resilience::FaultPlan(config.spec));
      const double severity = std::max(config.spec.straggler_severity, 1.0);
      if (hetero.makespan + 1e-9 < uniform.makespan ||
          hetero.makespan > severity * uniform.makespan + 1e-9) {
        makespan_ok = false;
      }

      table.AddRow({std::to_string(p), config.name, std::to_string(crashes),
                    std::to_string(Grown(before, "recovery.retries")),
                    std::to_string(Grown(before, "recovery.tuples_resent")),
                    std::to_string(resend_cap), identical ? "yes" : "NO",
                    FormatDouble(hetero.slowdown, 3)});
    }
  }
  table.Print(std::cout);

  PowerLawFit fit = FitPowerLaw(xs, ys);
  const bool exponent_ok = ReportExponent(report, "uniform_makespan", fit.slope,
                                          theory_exponent, /*tolerance=*/0.15);

  // One hypercube workload: the box join's single-round routing records and
  // materializes every routed row (unlike the charge-only acyclic sweep
  // above). The injector only observes and prices each attempt, and
  // Exchange::Execute always performs the one clean delivery, so this checks
  // that a storm whose drop/duplicate dice do fire on recorded routes leaves
  // every materialized row, the output count and the tracker byte-identical
  // to the clean run.
  bool hypercube_ok = true;
  {
    const Hypergraph box = catalog::BoxJoin();
    const Instance box_instance = workload::MatchingInstance(box, 4096);
    const uint32_t p = 64;
    std::vector<uint64_t> sizes;
    for (size_t r = 0; r < box_instance.num_relations(); ++r) {
      sizes.push_back(box_instance[r].size());
    }
    const mpc::ShareVector shares = mpc::OptimizeSharesForSizes(box, sizes, p);
    Cluster clean(p);
    const mpc::HypercubeResult base =
        mpc::HypercubeJoin(&clean, box, box_instance, shares, /*round=*/0, /*collect=*/true);
    for (const size_t config_index : {size_t{1}, size_t{2}}) {  // crash10%, drop+dup
      const FaultConfig& config = configs[config_index];
      const Metrics before = Ledger::Global().Read();
      Cluster faulty(p);
      mpc::HypercubeResult recovered;
      {
        resilience::ScopedFaultInjection injection(config.spec);
        recovered = mpc::HypercubeJoin(&faulty, box, box_instance, shares, /*round=*/0,
                                       /*collect=*/true);
      }
      const uint64_t dropped = Grown(before, "fault.rows_dropped");
      const uint64_t duplicated = Grown(before, "fault.rows_duplicated");
      bool identical = base.output_count == recovered.output_count &&
                       base.max_receive_load == recovered.max_receive_load &&
                       clean.tracker() == faulty.tracker() &&
                       base.results.num_shards() == recovered.results.num_shards();
      for (uint32_t s = 0; identical && s < base.results.num_shards(); ++s) {
        identical = base.results.shard(s).raw() == recovered.results.shard(s).raw();
      }
      // The corruption config must actually corrupt something here —
      // otherwise the "healed" claim is vacuous.
      const bool exercised = config_index != 2 || dropped + duplicated > 0;
      hypercube_ok = hypercube_ok && identical && exercised;
      std::cout << "hypercube box join under " << config.name << ": output "
                << recovered.output_count << ", dropped " << dropped << ", duplicated "
                << duplicated << ", retries " << Grown(before, "recovery.retries")
                << ", identical: " << (identical ? "yes" : "NO") << "\n";
    }
  }

  const Metrics recovery = Ledger::Global().Read("recovery.");
  if (recovery.MaxValue("recovery.max_single_resend") > max_baseline_load) resend_ok = false;
  report.metrics.SetGauge("max_baseline_load", static_cast<double>(max_baseline_load));
  std::cout << "all faulted runs bit-identical: " << (identical_ok ? "yes" : "NO")
            << "; resend within one round's load per crash: " << (resend_ok ? "yes" : "NO")
            << "; makespan model consistent: " << (makespan_ok ? "yes" : "NO") << "\n";

  FinishReport(report,
               identical_ok && resend_ok && makespan_ok && exponent_ok && hypercube_ok);
  return report;
}

}  // namespace bench
}  // namespace coverpack

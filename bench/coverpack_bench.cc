/// \file coverpack_bench.cc
/// \brief Unified bench driver: runs any subset of the registered
/// experiments, prints the same text reports the per-display binaries
/// always have, and writes the structured results as BENCH_results.json.
///
/// Usage:
///   coverpack_bench                 # run everything
///   coverpack_bench --list          # list experiment ids and exit
///   coverpack_bench --fast          # only the CI fast subset
///   coverpack_bench --filter table1 # case-insensitive substring, repeatable
///   coverpack_bench --filter='thm5*'  # '*'/'?' terms are whole-id globs
///   coverpack_bench --clients=8 --arrival=bursty --zipf-s=1.4 --no-cache
///                                   # reshape the service_throughput sweep
///   coverpack_bench --out path.json # or --out=path.json; default:
///                                   # BENCH_results.json in CWD
///   coverpack_bench --threads=8     # pool size (default: hw concurrency)
///   coverpack_bench --compare-serial  # also time --threads=1, stamp speedup
///   coverpack_bench --seed=123      # override every experiment's base seed
///   coverpack_bench --crash-rate=0.05 --straggler-rate=0.25
///                   --straggler-severity=8 --drop-rate=0.001
///                   --dup-rate=0.001 --fault-seed=7 --max-attempts=4
///                                   # run EVERYTHING under fault injection
///
/// Results are bit-identical at any --threads value (shard-ordered merges +
/// split Rng streams); only the wall-clock fields change. They are also
/// bit-identical under any fault flags — fault injection recovers to the
/// fault-free state and only adds fault.* / recovery.* metrics (see
/// EXPERIMENTS.md).
///
/// Every numeric flag must parse completely and lie in its range (rates in
/// [0, 1], severity >= 1, counts >= 1); anything else is a usage error.
///
/// Exit status: 0 iff every selected experiment reproduces its claim
/// (verdict SHAPE-REPRODUCED); 1 on any DEVIATION; 2 on usage errors or
/// an empty selection.

#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_profile.h"
#include "experiments/experiments.h"
#include "experiments/runners.h"
#include "planner/cost_model.h"
#include "resilience/fault_injector.h"
#include "service/workload_sim.h"
#include "telemetry/json_writer.h"
#include "telemetry/run_report.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace bench {
namespace {

struct DriverOptions {
  bool list = false;
  bool fast_only = false;
  std::vector<std::string> filters;
  std::string out_path = "BENCH_results.json";
  unsigned threads = 0;  // 0 = hardware concurrency
  bool compare_serial = false;
  uint64_t seed = 0;  // 0 = historical per-experiment seeds
  resilience::FaultSpec faults;
  ServiceBenchOverrides service;
  PlannerBenchOverrides planner;
  ClusterBenchOverrides cluster;
};

int Usage(std::ostream& os, int code) {
  os << "usage: coverpack_bench [--list] [--fast] [--filter SUBSTR]... [--out[=]PATH]\n"
        "                       [--threads=N] [--compare-serial] [--seed=U]\n"
        "                       [--crash-rate=R] [--drop-rate=R] [--dup-rate=R]\n"
        "                       [--straggler-rate=R] [--straggler-severity=X]\n"
        "                       [--fault-seed=U] [--max-attempts=N]\n"
        "                       [--clients=N] [--arrival=MODE] [--zipf-s=X]\n"
        "                       [--no-cache] [--planner=MODE]\n"
        "                       [--speeds=SPEC] [--elastic=SCHEDULE]\n"
        "  --list          list experiment ids and exit\n"
        "  --fast          run only the fast subset (the CI default)\n"
        "  --filter TERM   keep experiments whose id or display id matches\n"
        "                  TERM (case-insensitive); repeatable, OR-ed;\n"
        "                  --filter=a,b,c takes a comma-separated list; a\n"
        "                  TERM with '*' or '?' is a whole-id glob\n"
        "                  (--filter='thm5*'), otherwise a substring\n"
        "  --out[=]PATH    where to write the JSON results\n"
        "                  (default BENCH_results.json)\n"
        "  --threads=N     thread-pool size, at most 1024; results are\n"
        "                  bit-identical at any N (default: hardware\n"
        "                  concurrency)\n"
        "  --compare-serial  run each experiment at --threads=1 first and\n"
        "                  record wall_ms_serial + speedup in the report\n"
        "  --seed=U        override every experiment's base seed (nonzero);\n"
        "                  default: each experiment's historical fixed seeds\n"
        "  --crash-rate=R --drop-rate=R --dup-rate=R --straggler-rate=R\n"
        "  --straggler-severity=X --fault-seed=U --max-attempts=N\n"
        "                  run every experiment under deterministic fault\n"
        "                  injection; results stay bit-identical and the\n"
        "                  recovery cost lands in fault.*/recovery.* metrics\n"
        "  --clients=N --arrival=open|closed|bursty --zipf-s=X --no-cache\n"
        "                  reshape the service_throughput sweep: fix the\n"
        "                  client count, arrival discipline, or popularity\n"
        "                  skew, or run only the cache-off variant\n"
        "  --planner=MODE  auto|one_round|acyclic|output_balanced: force the\n"
        "                  planner_ablation experiment's algorithm choice\n"
        "                  (default auto = the cost-based chooser; forcing\n"
        "                  turns the claims into a diagnostic sweep)\n"
        "  --speeds=SPEC   narrow the cluster_elastic speed sweep to one\n"
        "                  spec: uniform | halves:<speed> | geom:<max> |\n"
        "                  seeded:<seed> | a comma list of speeds\n"
        "  --elastic=SCHEDULE  narrow the cluster_elastic schedule sweep to\n"
        "                  one schedule: none | +<k>@<round>,-<k>@<round>...\n";
  return code;
}

/// Reads `text`, the value of numeric flag `name`, as a finite number in
/// [min, max]. The whole string must parse; on failure prints what the
/// flag accepts (`range`) and returns false.
bool ReadNumber(const char* name, const std::string& text, double min, double max,
                const char* range, double* out) {
  char* end = nullptr;
  errno = 0;
  const double value = std::strtod(text.c_str(), &end);
  const bool parsed = !text.empty() && std::isspace(static_cast<unsigned char>(text[0])) == 0 &&
                      end == text.c_str() + text.size() && errno == 0 && std::isfinite(value);
  if (!parsed || value < min || value > max) {
    std::cerr << "coverpack_bench: " << name << " must be " << range << ", got '" << text
              << "'\n";
    return false;
  }
  *out = value;
  return true;
}

/// Reads `text`, the value of numeric flag `name`, as a decimal integer in
/// [min, max], with the same whole-string rule as ReadNumber.
bool ReadCount(const char* name, const std::string& text, uint64_t min, uint64_t max,
               const char* range, uint64_t* out) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long value = std::strtoull(text.c_str(), &end, 10);
  const bool parsed = !text.empty() && std::isdigit(static_cast<unsigned char>(text[0])) != 0 &&
                      end == text.c_str() + text.size() && errno == 0;
  if (!parsed || value < min || value > max) {
    std::cerr << "coverpack_bench: " << name << " must be " << range << ", got '" << text
              << "'\n";
    return false;
  }
  *out = value;
  return true;
}

constexpr const char* kRate = "a number in [0, 1]";
constexpr uint64_t kMaxCount = std::numeric_limits<uint32_t>::max();
/// Upper bound of --threads: the pool starts one OS thread per unit.
constexpr uint64_t kMaxThreads = 1024;

bool Selected(const Experiment& experiment, const DriverOptions& options) {
  if (options.fast_only && !experiment.fast) return false;
  if (options.filters.empty()) return true;
  for (const std::string& filter : options.filters) {
    if (ExperimentMatchesFilter(experiment, filter)) return true;
  }
  return false;
}

int RunDriver(const DriverOptions& options) {
  std::vector<const Experiment*> selected;
  for (const Experiment& experiment : AllExperiments()) {
    if (Selected(experiment, options)) selected.push_back(&experiment);
  }

  if (options.list) {
    for (const Experiment* experiment : selected) {
      std::cout << experiment->id << "\t" << (experiment->fast ? "fast" : "slow") << "\t"
                << experiment->title << "\n";
    }
    return 0;
  }
  if (selected.empty()) {
    std::cerr << "coverpack_bench: no experiment matches the given filters\n";
    return 2;
  }

  unsigned threads = options.threads != 0 ? options.threads : ThreadPool::GlobalThreads();
  SetExperimentBaseSeed(options.seed);
  SetServiceBenchOverrides(options.service);
  SetPlannerBenchOverrides(options.planner);
  SetClusterBenchOverrides(options.cluster);
  // With any fault flag set, the whole selection runs under the injector —
  // including the serial reference runs, which still compare identical.
  std::unique_ptr<resilience::ScopedFaultInjection> injection;
  if (options.faults.active()) {
    injection = std::make_unique<resilience::ScopedFaultInjection>(options.faults);
  }
  std::vector<telemetry::RunReport> reports;
  reports.reserve(selected.size());
  for (const Experiment* experiment : selected) {
    double wall_ms_serial = 0.0;
    if (options.compare_serial && threads > 1) {
      // Serial reference run: same experiment on a one-thread pool. The
      // report it produces is discarded — determinism guarantees it is
      // identical to the parallel one below, wall-clock aside.
      ThreadPool::SetGlobalThreads(1);
      auto serial_start = std::chrono::steady_clock::now();
      telemetry::RunReport serial_report = RunExperiment(*experiment);
      auto serial_end = std::chrono::steady_clock::now();
      wall_ms_serial =
          std::chrono::duration<double, std::milli>(serial_end - serial_start).count();
      std::cout << "\n";
    }
    ThreadPool::SetGlobalThreads(threads);
    auto start = std::chrono::steady_clock::now();
    telemetry::RunReport report = RunExperiment(*experiment);
    auto end = std::chrono::steady_clock::now();
    report.wall_ms = std::chrono::duration<double, std::milli>(end - start).count();
    report.threads = threads;
    report.wall_ms_serial = wall_ms_serial;
    if (wall_ms_serial > 0.0 && report.wall_ms > 0.0) {
      report.speedup = wall_ms_serial / report.wall_ms;
    }
    reports.push_back(std::move(report));
    std::cout << "\n";
  }

  // Summary table + machine-readable dump.
  telemetry::JsonValue doc = telemetry::JsonValue::Object();
  doc.Set("schema_version", telemetry::kSchemaVersion);
  doc.Set("suite", "coverpack");
  doc.Set("threads", static_cast<uint64_t>(threads));
  doc.Set("hardware_concurrency",
          static_cast<uint64_t>(std::thread::hardware_concurrency()));
  doc.Set("count", static_cast<uint64_t>(reports.size()));
  if (options.seed != 0) doc.Set("base_seed", options.seed);
  if (options.faults.active()) {
    telemetry::JsonValue faults = telemetry::JsonValue::Object();
    faults.Set("seed", options.faults.seed);
    faults.Set("crash_rate", options.faults.crash_rate);
    faults.Set("drop_rate", options.faults.drop_rate);
    faults.Set("duplicate_rate", options.faults.duplicate_rate);
    faults.Set("straggler_rate", options.faults.straggler_rate);
    faults.Set("straggler_severity", options.faults.straggler_severity);
    faults.Set("max_attempts", static_cast<uint64_t>(options.faults.max_attempts));
    doc.Set("faults", std::move(faults));
  }
  telemetry::JsonValue results = telemetry::JsonValue::Array();
  uint32_t reproduced = 0;
  std::cout << "==== coverpack_bench summary (threads=" << threads << ") ====\n";
  for (const telemetry::RunReport& report : reports) {
    reproduced += report.ok ? 1 : 0;
    std::cout << (report.ok ? "  [ok]        " : "  [DEVIATION] ") << report.id << "  ("
              << static_cast<int64_t>(report.wall_ms) << " ms";
    if (report.speedup > 0.0) {
      std::cout << ", serial " << static_cast<int64_t>(report.wall_ms_serial) << " ms, "
                << report.speedup << "x";
    }
    std::cout << ")\n";
    results.Append(report.ToJson());
  }
  doc.Set("results", std::move(results));
  std::cout << reproduced << "/" << reports.size() << " experiments reproduce their claims\n";

  std::ofstream out(options.out_path);
  if (!out) {
    std::cerr << "coverpack_bench: cannot open " << options.out_path << " for writing\n";
    return 2;
  }
  doc.Write(out);
  out << "\n";
  out.close();
  std::cout << "wrote " << options.out_path << "\n";

  return reproduced == reports.size() ? 0 : 1;
}

}  // namespace
}  // namespace bench
}  // namespace coverpack

int main(int argc, char** argv) {
  using coverpack::bench::kMaxCount;
  using coverpack::bench::kMaxThreads;
  using coverpack::bench::kRate;
  using coverpack::bench::ReadCount;
  using coverpack::bench::ReadNumber;
  coverpack::bench::DriverOptions options;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--list") {
      options.list = true;
    } else if (arg == "--fast") {
      options.fast_only = true;
    } else if (arg == "--filter") {
      if (i + 1 >= argc) return coverpack::bench::Usage(std::cerr, 2);
      options.filters.push_back(argv[++i]);
    } else if (arg.rfind("--filter=", 0) == 0) {
      // --filter=a,b,c — comma-separated OR-ed substrings.
      std::string list = arg.substr(9);
      size_t start = 0;
      while (start <= list.size()) {
        size_t comma = list.find(',', start);
        if (comma == std::string::npos) comma = list.size();
        if (comma > start) options.filters.push_back(list.substr(start, comma - start));
        start = comma + 1;
      }
    } else if (arg == "--out") {
      if (i + 1 >= argc) return coverpack::bench::Usage(std::cerr, 2);
      options.out_path = argv[++i];
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out_path = arg.substr(6);
      if (options.out_path.empty()) {
        std::cerr << "coverpack_bench: --out= needs a path\n";
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--threads=", 0) == 0 || arg == "--threads") {
      std::string text;
      if (arg == "--threads") {
        if (i + 1 >= argc) return coverpack::bench::Usage(std::cerr, 2);
        text = argv[++i];
      } else {
        text = arg.substr(10);
      }
      uint64_t threads = 0;
      if (!ReadCount("--threads", text, 1, kMaxThreads, "an integer in [1, 1024]",
                     &threads)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
      options.threads = static_cast<unsigned>(threads);
    } else if (arg == "--compare-serial") {
      options.compare_serial = true;
    } else if (arg.rfind("--seed=", 0) == 0) {
      if (!ReadCount("--seed", arg.substr(7), 1, std::numeric_limits<uint64_t>::max(),
                     "a nonzero integer", &options.seed)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--crash-rate=", 0) == 0) {
      if (!ReadNumber("--crash-rate", arg.substr(13), 0.0, 1.0, kRate,
                      &options.faults.crash_rate)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--drop-rate=", 0) == 0) {
      if (!ReadNumber("--drop-rate", arg.substr(12), 0.0, 1.0, kRate,
                      &options.faults.drop_rate)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--dup-rate=", 0) == 0) {
      if (!ReadNumber("--dup-rate", arg.substr(11), 0.0, 1.0, kRate,
                      &options.faults.duplicate_rate)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--straggler-rate=", 0) == 0) {
      if (!ReadNumber("--straggler-rate", arg.substr(17), 0.0, 1.0, kRate,
                      &options.faults.straggler_rate)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--straggler-severity=", 0) == 0) {
      if (!ReadNumber("--straggler-severity", arg.substr(21), 1.0,
                      std::numeric_limits<double>::max(), "a number >= 1",
                      &options.faults.straggler_severity)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--fault-seed=", 0) == 0) {
      if (!ReadCount("--fault-seed", arg.substr(13), 0, std::numeric_limits<uint64_t>::max(),
                     "an unsigned integer", &options.faults.seed)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--max-attempts=", 0) == 0) {
      uint64_t attempts = 0;
      if (!ReadCount("--max-attempts", arg.substr(15), 1, kMaxCount, "an integer >= 1",
                     &attempts)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
      options.faults.max_attempts = static_cast<uint32_t>(attempts);
    } else if (arg.rfind("--clients=", 0) == 0) {
      uint64_t clients = 0;
      if (!ReadCount("--clients", arg.substr(10), 1, kMaxCount, "an integer >= 1", &clients)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
      options.service.clients = static_cast<uint32_t>(clients);
    } else if (arg.rfind("--arrival=", 0) == 0) {
      options.service.arrival = arg.substr(10);
      if (!coverpack::service::ParseArrivalMode(options.service.arrival).has_value()) {
        std::cerr << "coverpack_bench: --arrival must be open, closed, or bursty\n";
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--zipf-s=", 0) == 0) {
      if (!ReadNumber("--zipf-s", arg.substr(9), std::numeric_limits<double>::denorm_min(),
                      std::numeric_limits<double>::max(), "a number > 0",
                      &options.service.zipf_skew)) {
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg == "--no-cache") {
      options.service.no_cache = true;
    } else if (arg.rfind("--planner=", 0) == 0) {
      options.planner.mode = arg.substr(10);
      if (options.planner.mode != "auto" &&
          !coverpack::planner::ParseAlgorithm(options.planner.mode).has_value()) {
        std::cerr << "coverpack_bench: --planner must be auto, one_round, acyclic, "
                     "or output_balanced\n";
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--speeds=", 0) == 0) {
      options.cluster.speeds = arg.substr(9);
      if (!coverpack::cluster::ParseSpeedSpec(options.cluster.speeds).has_value()) {
        std::cerr << "coverpack_bench: --speeds must be uniform, halves:<speed>, "
                     "geom:<max>, seeded:<seed>, or a comma list of speeds\n";
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg.rfind("--elastic=", 0) == 0) {
      options.cluster.elastic = arg.substr(10);
      if (!coverpack::cluster::ParseElasticSpec(options.cluster.elastic).has_value()) {
        std::cerr << "coverpack_bench: --elastic must be none or a comma list of "
                     "+<k>@<round> / -<k>@<round> events with round >= 1\n";
        return coverpack::bench::Usage(std::cerr, 2);
      }
    } else if (arg == "--help" || arg == "-h") {
      return coverpack::bench::Usage(std::cout, 0);
    } else {
      std::cerr << "coverpack_bench: unknown argument " << arg << "\n";
      return coverpack::bench::Usage(std::cerr, 2);
    }
  }
  return coverpack::bench::RunDriver(options);
}

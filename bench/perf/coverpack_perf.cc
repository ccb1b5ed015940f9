/// \file coverpack_perf.cc
/// \brief The coverpack_perf benchmark: wall time of the library's main
/// entry points on four workloads, end to end and layer by layer.
///
/// Usage:
///   coverpack_perf --workload=<name> [--seed=<u64>] [--seconds=<s>]
///                  [--out=<json>] [--trace=<json>] [--expected=<json>]
///                  [--smoke]
///   coverpack_perf --record-expected=<json> [--seed=<u64>]
///
/// One process runs one workload on min(4, nproc) pool threads with one
/// closed-loop client. Set-up (input generation and the oracle) runs three
/// times and reports its median, then each distinct operation runs once as a
/// warm-up; operations are then timed, cycle by cycle, until `--seconds`
/// have passed. Every operation is checked against the oracle and against
/// its pinned load fingerprint outside the timed region.
///
/// Without --trace the run reports the end-to-end metrics. With --trace the
/// operations get the first half of the time and the layer probes (probes.h)
/// the second, the per-layer metrics are reported instead, and every span is
/// written to the trace file.
///
/// --expected names the pinned fingerprints (expected.json); they apply
/// when the file's seed equals --seed, otherwise the warm-up's fingerprints
/// are the reference. --record-expected writes that file for --seed from
/// one warm-up of every workload. --smoke sets up once, skips the warm-up,
/// times two operations, and trims paper_suite to its quick experiments.
///
/// Exit status: 0 when the run completed (failed operations are reported,
/// not fatal); 2 on usage errors or unreadable files.

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perf_harness.h"
#include "probes.h"
#include "telemetry/json_writer.h"
#include "util/thread_pool.h"
#include "workloads.h"

#ifndef CP_PERF_BUILD_TYPE
#define CP_PERF_BUILD_TYPE "unknown"
#endif

namespace coverpack {
namespace perf {
namespace {

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 22.0;
  std::string out_path;
  std::string trace_path;
  std::string expected_path;
  std::string record_path;
  bool smoke = false;
};

/// Checks each operation's outcome against the reference fingerprints and
/// tallies failures.
class Verifier {
 public:
  explicit Verifier(std::map<std::string, std::string> pinned) : reference_(std::move(pinned)) {}

  void Record(const std::string& op_name, const std::string& fingerprint,
              const std::string& error) {
    ++attempted_;
    std::string problem = error;
    const auto it = reference_.find(op_name);
    if (problem.empty() && it == reference_.end()) {
      reference_[op_name] = fingerprint;  // unpinned seed: the first clean run is the reference
    } else if (problem.empty() && it->second != fingerprint) {
      problem = op_name + ": load fingerprint '" + fingerprint + "' differs from '" +
                it->second + "'";
    }
    if (problem.empty()) return;
    ++failed_;
    if (errors_.size() < 8) errors_.push_back(problem);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& errors() const { return errors_; }

 private:
  std::map<std::string, std::string> reference_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  std::vector<std::string> errors_;
};

/// Unit of a detail value, from its name.
const char* UnitOf(const std::string& name) {
  if (name.find("_ms") != std::string::npos) return "ms";
  if (name.find("_ticks") != std::string::npos) return "ticks";
  if (name.find("_qpk") != std::string::npos) return "q/kilotick";
  if (name.find("_share") != std::string::npos) return "ratio";
  return "count";
}

/// Median over ops of the share of each "op." span covered by its direct
/// children (the layer calls it makes).
double OpCoverage(const Tracer& tracer) {
  const std::vector<Tracer::Span>& spans = tracer.spans();
  std::vector<double> covered(spans.size(), 0.0);
  for (const Tracer::Span& span : spans) {
    if (span.parent >= 0) covered[span.parent] += span.end_ms - span.start_ms;
  }
  std::vector<double> shares;
  for (size_t i = 0; i < spans.size(); ++i) {
    const double duration = spans[i].end_ms - spans[i].start_ms;
    if (spans[i].name.rfind("op.", 0) == 0 && duration > 0.0) {
      shares.push_back(covered[i] / duration);
    }
  }
  return Median(std::move(shares));
}

telemetry::JsonValue HostJson(unsigned threads) {
  telemetry::JsonValue host = telemetry::JsonValue::Object();
  host.Set("nproc", static_cast<uint64_t>(std::thread::hardware_concurrency()));
  host.Set("compiler", __VERSION__);
  host.Set("build_type", CP_PERF_BUILD_TYPE);
  host.Set("threads", static_cast<uint64_t>(threads));
  return host;
}

bool WriteJson(const std::string& path, const telemetry::JsonValue& doc) {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "coverpack_perf: cannot write " << path << "\n";
    return false;
  }
  doc.Write(out);
  out << "\n";
  return static_cast<bool>(out);
}

unsigned PoolThreads() {
  return std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
}

int RunBenchmark(const Options& options) {
  const unsigned threads = PoolThreads();
  ThreadPool::SetGlobalThreads(threads);
  const bool tracing = !options.trace_path.empty();
  Tracer tracer(tracing);
  Tracer quiet(false);

  std::map<std::string, std::string> pinned;
  if (!options.expected_path.empty()) {
    const std::optional<PinTable> pins = PinTable::Read(options.expected_path);
    if (!pins.has_value()) {
      std::cerr << "coverpack_perf: cannot read " << options.expected_path << "\n";
      return 2;
    }
    const auto it = pins->workloads.find(options.workload);
    if (pins->seed == options.seed && it != pins->workloads.end()) pinned = it->second;
  }
  const bool pins_applied = !pinned.empty();
  Verifier verifier(std::move(pinned));

  // Set-up, repeated; each repetition rebuilds the inputs from scratch.
  const int repetitions = options.smoke ? 1 : 3;
  std::unique_ptr<Workload> workload;
  std::vector<double> setup_ms;
  std::vector<double> generate_ms;
  std::vector<double> oracle_ms;
  for (int r = 0; r < repetitions; ++r) {
    workload.reset();
    const Clock::time_point start = Clock::now();
    workload = MakeWorkload(options.workload, options.smoke);
    const SetupTimes times = workload->Setup(options.seed);
    setup_ms.push_back(MsBetween(start, Clock::now()));
    const double inputs = static_cast<double>(workload->ProbeInputs().size());
    generate_ms.push_back(times.generate_ms / inputs);
    oracle_ms.push_back(times.oracle_ms / inputs);
  }

  // Warm-up: every distinct operation once, verified. A smoke run skips it;
  // it runs the pinned seed, whose pins are the reference.
  uint64_t op = 0;
  const Clock::time_point warmup_start = Clock::now();
  for (size_t i = 0; i < workload->CycleLength() && !options.smoke; ++i) {
    workload->Run(i, op++, &quiet);
    std::string error;
    const std::string fingerprint = workload->Check(i, &error);
    verifier.Record(workload->OpName(i), fingerprint, error);
  }
  const double warmup_ms = MsBetween(warmup_start, Clock::now());

  // Measured phase: whole cycles until the time budget is spent. A traced
  // run gives the first half to the operations and the second to the layer
  // probes, so probes never disturb the operations the trace times.
  std::vector<double> op_ms;
  std::vector<std::map<std::string, double>> probe_rounds;
  uint64_t cycles = 0;
  const Clock::time_point phase_start = Clock::now();
  const double budget_ms = options.seconds * 1000.0;
  const double op_budget_ms = tracing ? budget_ms / 2 : budget_ms;
  const size_t smoke_ops = 2;
  bool done = false;
  while (!done) {
    for (size_t i = 0; i < workload->CycleLength() && !done; ++i) {
      const std::string name = workload->OpName(i);
      {
        const Tracer::Scope span = tracer.Open("op." + name, op);
        const Clock::time_point start = Clock::now();
        workload->Run(i, op, &tracer);
        op_ms.push_back(MsBetween(start, Clock::now()));
      }
      ++op;
      std::string error;
      const std::string fingerprint = workload->Check(i, &error);
      verifier.Record(name, fingerprint, error);
      done = options.smoke && op_ms.size() >= smoke_ops;
    }
    ++cycles;
    done = done || MsBetween(phase_start, Clock::now()) >= op_budget_ms;
  }
  while (tracing && (probe_rounds.empty() ||
                     (!options.smoke && MsBetween(phase_start, Clock::now()) < budget_ms))) {
    probe_rounds.push_back(RunLayerProbes(workload->ProbeInputs(), probe_rounds.size(), &tracer));
  }
  const double measured_s = MsBetween(phase_start, Clock::now()) / 1000.0;

  std::vector<std::pair<MetricSpec, double>> metrics;
  if (tracing) {
    for (const MetricSpec& spec : LayerMetrics()) {
      const std::string name = spec.name;
      double value = 0.0;
      if (name == "workload.generate_ms") {
        value = Median(generate_ms);
      } else if (name == "relation.oracle_ms") {
        value = Median(oracle_ms);
      } else if (name == "trace.op_ms_p50") {
        value = Percentile(op_ms, 0.5);
      } else {
        std::vector<double> rounds;
        for (const auto& round : probe_rounds) rounds.push_back(round.at(name));
        value = Median(std::move(rounds));
      }
      metrics.emplace_back(spec, value);
    }
  } else {
    double total_op_ms = 0.0;
    for (double ms : op_ms) total_op_ms += ms;
    metrics = {
        {{"op_ms_p50", "ms"}, Percentile(op_ms, 0.5)},
        {{"ops_per_s", "1/s"}, static_cast<double>(op_ms.size()) * 1000.0 / total_op_ms},
        {{"setup_s", "s"}, (Median(setup_ms) + warmup_ms) / 1000.0},
        {{"peak_rss_mb", "MiB"}, PeakRssMb()},
    };
  }

  // The tail is reported but not bounded: on a shared host it follows the
  // neighbours' load (its run-to-run spread is 10-17%, see README.md).
  std::map<std::string, double> detail = workload->Detail();
  detail["op_ms_p90"] = Percentile(op_ms, 0.9);
  for (size_t i = 0; i < workload->CycleLength(); ++i) {
    std::vector<double> samples;
    for (size_t k = i; k < op_ms.size(); k += workload->CycleLength()) samples.push_back(op_ms[k]);
    detail["op." + workload->OpName(i) + "_ms_p50"] = Median(std::move(samples));
  }
  detail["setup.inputs_ms"] = Median(setup_ms);
  detail["setup.warmup_ms"] = warmup_ms;
  if (tracing) {
    detail["trace.op_coverage_share"] = OpCoverage(tracer);
    for (const auto& [name, ms] : tracer.MedianSelfMs()) {
      // Probe and experiment spans have no children; their times are reported already.
      if (name.rfind("probe.", 0) == 0 || name.rfind("suite.", 0) == 0) continue;
      detail["self." + name + "_ms"] = ms;
    }
  }

  const double error_rate =
      static_cast<double>(verifier.failed()) / static_cast<double>(verifier.attempted());
  std::cout << "# coverpack_perf workload=" << options.workload << " seed=" << options.seed
            << " trace=" << (tracing ? 1 : 0) << " threads=" << threads
            << " nproc=" << std::thread::hardware_concurrency() << "\n";
  std::cout << "# ops=" << op_ms.size() << " cycles=" << cycles << " measured_s=" << measured_s
            << " setup_repetitions=" << repetitions << " pinned=" << (pins_applied ? 1 : 0)
            << " attempted=" << verifier.attempted() << " failed=" << verifier.failed() << "\n";
  for (const std::string& error : verifier.errors()) std::cout << "# FAILED " << error << "\n";
  for (const auto& [spec, value] : metrics) {
    std::cout << spec.name << " " << value << " " << spec.unit << "\n";
  }
  std::cout << "# detail\n";
  for (const auto& [name, value] : detail) {
    std::cout << name << " " << value << " " << UnitOf(name) << "\n";
  }

  telemetry::JsonValue doc = telemetry::JsonValue::Object();
  doc.Set("workload", options.workload);
  doc.Set("seed", options.seed);
  doc.Set("trace", tracing);
  doc.Set("smoke", options.smoke);
  doc.Set("host", HostJson(threads));
  doc.Set("seconds", options.seconds);
  doc.Set("measured_s", measured_s);
  doc.Set("setup_repetitions", repetitions);
  doc.Set("ops", static_cast<uint64_t>(op_ms.size()));
  doc.Set("cycles", cycles);
  doc.Set("probe_rounds", static_cast<uint64_t>(probe_rounds.size()));
  doc.Set("pinned", pins_applied);
  doc.Set("correct", verifier.failed() == 0);
  doc.Set("attempted", verifier.attempted());
  doc.Set("failed", verifier.failed());
  doc.Set("error_rate", error_rate);
  telemetry::JsonValue errors = telemetry::JsonValue::Array();
  for (const std::string& error : verifier.errors()) errors.Append(telemetry::JsonValue::Str(error));
  doc.Set("errors", std::move(errors));
  telemetry::JsonValue samples = telemetry::JsonValue::Array();
  for (double ms : op_ms) samples.Append(telemetry::JsonValue::Double(ms));
  doc.Set("op_ms", std::move(samples));
  telemetry::JsonValue metric_json = telemetry::JsonValue::Object();
  for (const auto& [spec, value] : metrics) {
    telemetry::JsonValue entry = telemetry::JsonValue::Object();
    entry.Set("value", value);
    entry.Set("unit", spec.unit);
    metric_json.Set(spec.name, std::move(entry));
  }
  doc.Set("metrics", std::move(metric_json));
  telemetry::JsonValue detail_json = telemetry::JsonValue::Object();
  for (const auto& [name, value] : detail) detail_json.Set(name, value);
  doc.Set("detail", std::move(detail_json));
  if (!options.out_path.empty() && !WriteJson(options.out_path, doc)) return 2;
  if (tracing && !WriteJson(options.trace_path, tracer.ToJson())) return 2;
  return 0;
}

/// One warm-up of every workload at --seed, in full and smoke form; writes
/// their fingerprints.
int RecordExpected(const Options& options) {
  ThreadPool::SetGlobalThreads(PoolThreads());
  Tracer quiet(false);
  PinTable table;
  table.seed = options.seed;
  for (const std::string& name : WorkloadNames()) {
    for (const bool smoke : {false, true}) {
      std::unique_ptr<Workload> workload = MakeWorkload(name, smoke);
      workload->Setup(options.seed);
      for (size_t i = 0; i < workload->CycleLength(); ++i) {
        workload->Run(i, i, &quiet);
        std::string error;
        const std::string fingerprint = workload->Check(i, &error);
        if (!error.empty()) {
          std::cerr << "coverpack_perf: " << name << " failed its check: " << error << "\n";
          return 1;
        }
        table.workloads[name][workload->OpName(i)] = fingerprint;
      }
    }
    std::cout << "recorded " << name << "\n";
  }
  if (!table.Write(options.record_path)) return 2;
  std::cout << "wrote " << options.record_path << "\n";
  return 0;
}

int Usage() {
  std::cerr << "usage: coverpack_perf --workload=<name> [--seed=<u64>] [--seconds=<s>]\n"
               "                      [--out=<json>] [--trace=<json>] [--expected=<json>]\n"
               "                      [--smoke]\n"
               "       coverpack_perf --record-expected=<json> [--seed=<u64>]\n"
               "workloads:";
  for (const std::string& name : WorkloadNames()) std::cerr << " " << name;
  std::cerr << "\n";
  return 2;
}

/// The value of `--<flag>=<value>`, or nullopt when `arg` is another flag.
std::optional<std::string> FlagValue(const std::string& arg, const std::string& flag) {
  const std::string prefix = "--" + flag + "=";
  if (arg.rfind(prefix, 0) != 0) return std::nullopt;
  return arg.substr(prefix.size());
}

}  // namespace
}  // namespace perf
}  // namespace coverpack

int main(int argc, char** argv) {
  using coverpack::perf::FlagValue;
  coverpack::perf::Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = FlagValue(arg, "workload")) {
      options.workload = *v;
    } else if (auto v = FlagValue(arg, "seed")) {
      char* end = nullptr;
      options.seed = std::strtoull(v->c_str(), &end, 10);
      if (v->empty() || *end != '\0') return coverpack::perf::Usage();
    } else if (auto v = FlagValue(arg, "seconds")) {
      char* end = nullptr;
      options.seconds = std::strtod(v->c_str(), &end);
      if (v->empty() || *end != '\0' || !(options.seconds > 0.0)) {
        return coverpack::perf::Usage();
      }
    } else if (auto v = FlagValue(arg, "out")) {
      options.out_path = *v;
    } else if (auto v = FlagValue(arg, "trace")) {
      options.trace_path = *v;
    } else if (auto v = FlagValue(arg, "expected")) {
      options.expected_path = *v;
    } else if (auto v = FlagValue(arg, "record-expected")) {
      options.record_path = *v;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else {
      std::cerr << "coverpack_perf: unknown argument " << arg << "\n";
      return coverpack::perf::Usage();
    }
  }
  if (!options.record_path.empty()) return coverpack::perf::RecordExpected(options);
  const std::vector<std::string>& names = coverpack::perf::WorkloadNames();
  if (std::find(names.begin(), names.end(), options.workload) == names.end()) {
    return coverpack::perf::Usage();
  }
  return coverpack::perf::RunBenchmark(options);
}

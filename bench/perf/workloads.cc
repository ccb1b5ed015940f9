#include "workloads.h"

#include <iostream>
#include <optional>
#include <sstream>
#include <streambuf>
#include <utility>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "experiments/experiments.h"
#include "query/catalog.h"
#include "query/join_tree.h"
#include "relation/oracle.h"
#include "resilience/fault_injector.h"
#include "service/query_service.h"
#include "util/hash.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace perf {
namespace {

/// Row count and digest of a join, as a pair that adds and multiplies
/// componentwise.
struct Answer {
  uint64_t rows = 0;
  uint64_t digest = 0;
};

/// Answer of the full join of an alpha-acyclic query by sum-product message
/// passing up its join tree, without materializing the join. Each row of a
/// relation weighs the product of the value factors of the attributes it is
/// the topmost holder of, times the messages of its children keyed by the
/// attributes they share; a forest multiplies its trees' totals.
Answer TreeAnswer(const Hypergraph& query, const JoinTree& tree, const Instance& instance) {
  std::vector<uint32_t> order;  // parents before children
  for (uint32_t root : tree.Roots()) {
    order.push_back(root);
    for (size_t i = order.size() - 1; i < order.size(); ++i) {
      for (uint32_t child : tree.children(order[i])) order.push_back(child);
    }
  }
  std::vector<std::vector<Answer>> weights(query.num_edges());
  const auto key_of = [](const Relation& relation, const std::vector<uint32_t>& columns,
                         size_t row) {
    std::vector<Value> key;
    for (uint32_t column : columns) key.push_back(relation.row(row)[column]);
    return key;
  };
  for (auto node = order.rbegin(); node != order.rend(); ++node) {
    const EdgeId e = *node;
    const Relation& relation = instance[e];
    const AttrSet attrs = query.edge(e).attrs;
    const AttrSet owned =
        tree.IsRoot(e) ? attrs : attrs.Minus(query.edge(tree.parent(e)).attrs);
    std::vector<Answer>& weight = weights[e];
    weight.assign(relation.size(), Answer{1, 1});
    for (AttrId attr : owned.ToVector()) {
      const uint32_t column = relation.ColumnOf(attr);
      for (size_t i = 0; i < relation.size(); ++i) {
        weight[i].digest *= ValueFactor(attr, relation.row(i)[column]);
      }
    }
    for (uint32_t child : tree.children(e)) {
      const Relation& child_relation = instance[child];
      std::vector<uint32_t> child_columns;
      std::vector<uint32_t> columns;
      for (AttrId attr : attrs.Intersect(query.edge(child).attrs).ToVector()) {
        child_columns.push_back(child_relation.ColumnOf(attr));
        columns.push_back(relation.ColumnOf(attr));
      }
      std::map<std::vector<Value>, Answer> message;
      for (size_t j = 0; j < child_relation.size(); ++j) {
        Answer& sum = message[key_of(child_relation, child_columns, j)];
        sum.rows += weights[child][j].rows;
        sum.digest += weights[child][j].digest;
      }
      for (size_t i = 0; i < relation.size(); ++i) {
        const auto it = message.find(key_of(relation, columns, i));
        const Answer factor = it == message.end() ? Answer{} : it->second;
        weight[i].rows *= factor.rows;
        weight[i].digest *= factor.digest;
      }
    }
  }
  Answer total{1, 1};
  for (uint32_t root : tree.Roots()) {
    Answer sum;
    for (const Answer& w : weights[root]) {
      sum.rows += w.rows;
      sum.digest += w.digest;
    }
    total.rows *= sum.rows;
    total.digest *= sum.digest;
  }
  return total;
}

/// The oracle: message passing on acyclic queries, where GenericJoin takes
/// tens of seconds (path5 at N = 20000), and GenericJoin on cyclic ones.
void RunOracle(QueryInput* input) {
  const std::optional<JoinTree> tree = JoinTree::Build(input->query);
  input->acyclic = tree.has_value();
  if (input->acyclic) {
    const Answer answer = TreeAnswer(input->query, *tree, input->instance);
    input->oracle_rows = answer.rows;
    input->oracle_digest = answer.digest;
    return;
  }
  const Relation expected = GenericJoin(input->query, input->instance);
  input->oracle_rows = expected.size();
  input->oracle_digest = RowDigest(expected);
}

/// The workload's fixed Zipf(0.5) sample with n tuples per relation over
/// [0, domain), with each attribute's values renamed by a permutation drawn
/// from the run seed. Every seed gives other values, hash placements and
/// row orders but the same join structure, so the work does not depend on
/// the seed; a fresh skewed sample per seed moves the output size, and the
/// time, by tens of percent.
QueryInput ZipfInput(std::string name, Hypergraph query, size_t n, uint64_t domain,
                     uint64_t seed, uint64_t stream) {
  constexpr uint64_t kInstanceSeed = 0x21F5EEDull;
  Rng sample_rng(SplitSeed(kInstanceSeed, stream));
  Instance instance = workload::ZipfInstance(query, n, domain, 0.5, &sample_rng);
  Rng rename_rng(SplitSeed(seed, stream));
  std::vector<std::vector<Value>> renames(query.num_attrs(), std::vector<Value>(domain));
  for (std::vector<Value>& rename : renames) {
    for (Value v = 0; v < domain; ++v) rename[v] = v;
    rename_rng.Shuffle(&rename);
  }
  for (EdgeId e = 0; e < query.num_edges(); ++e) {
    const Relation& sample = instance[e];
    const std::vector<AttrId> attrs = sample.attrs().ToVector();
    Relation renamed(sample.attrs());
    Value* out = renamed.AppendUninitialized(sample.size());
    for (size_t i = 0; i < sample.size(); ++i) {
      for (size_t c = 0; c < attrs.size(); ++c) {
        *out++ = renames[attrs[c]][sample.row(i)[c]];
      }
    }
    renamed.SortRows();
    instance[e] = std::move(renamed);
  }
  return QueryInput{std::move(name), std::move(query), std::move(instance)};
}

/// Generates `inputs` with `make` and runs the oracle over them, timing both.
template <typename MakeFn>
SetupTimes BuildInputs(std::vector<QueryInput>* inputs, const MakeFn& make) {
  SetupTimes times;
  const Clock::time_point start = Clock::now();
  *inputs = make();
  const Clock::time_point generated = Clock::now();
  for (QueryInput& input : *inputs) RunOracle(&input);
  const Clock::time_point end = Clock::now();
  times.generate_ms = MsBetween(start, generated);
  times.oracle_ms = MsBetween(generated, end);
  return times;
}

/// "rows=<n> digest=<hex> loads=<hex>"; sets *error when the rows differ
/// from the oracle's.
std::string ResultFingerprint(const QueryInput& input, const JoinRun& run, std::string* error) {
  const Relation& results = run.results;
  const uint64_t digest = RowDigest(results);
  if (!(results.attrs() == input.query.AllAttrs())) {
    *error = input.name + ": result schema differs from the query's attributes";
  } else if (results.size() != input.oracle_rows || digest != input.oracle_digest ||
             run.output_count != results.size()) {
    std::ostringstream message;
    message << input.name << ": " << results.size() << " rows (digest " << Hex(digest)
            << ", output_count " << run.output_count << ") vs oracle " << input.oracle_rows
            << " rows (digest " << Hex(input.oracle_digest) << ")";
    *error = message.str();
  }
  return "rows=" + std::to_string(results.size()) + " digest=" + Hex(digest) +
         " loads=" + Hex(service::FingerprintTrackerHash(run.load_tracker));
}

uint64_t StringHash(const std::string& text) {
  uint64_t h = 0;
  for (unsigned char c : text) h = HashCombine(h, c);
  return h;
}

/// Skewed acyclic joins for Theorem 5's algorithm.
std::vector<QueryInput> AcyclicSkewInputs(uint64_t seed) {
  std::vector<QueryInput> inputs;
  inputs.push_back(ZipfInput("path5", catalog::Path(5), 20000, 20000, seed, 0));
  inputs.push_back(ZipfInput("star3", catalog::Star(3), 20000, 20000, seed, 1));
  inputs.push_back(ZipfInput("line3", catalog::Line3(), 20000, 20000, seed, 2));
  return inputs;
}

/// Skewed cyclic joins for the one-round algorithm. Domains are small enough
/// that every join has output to check. Five shapes, so the median operation
/// falls inside one shape's samples.
std::vector<QueryInput> CyclicInputs(uint64_t seed) {
  std::vector<QueryInput> inputs;
  inputs.push_back(ZipfInput("triangle", catalog::Triangle(), 10000, 2000, seed, 0));
  inputs.push_back(ZipfInput("cycle4", catalog::Cycle(4), 6000, 1500, seed, 1));
  inputs.push_back(ZipfInput("clique4", catalog::Clique(4), 8000, 400, seed, 2));
  inputs.push_back(ZipfInput("lw4", catalog::LoomisWhitney(4), 20000, 60, seed, 3));
  inputs.push_back(ZipfInput("box", catalog::BoxJoin(), 3000, 200, seed, 4));
  return inputs;
}

/// RunJoin over a fixed list of queries, one query per operation, optionally
/// under the crash storm.
class JoinWorkload : public Workload {
 public:
  using MakeInputs = std::vector<QueryInput> (*)(uint64_t seed);

  JoinWorkload(MakeInputs make_inputs, bool faulted)
      : make_inputs_(make_inputs), faulted_(faulted) {}

  SetupTimes Setup(uint64_t seed) override {
    return BuildInputs(&inputs_, [&] { return make_inputs_(seed); });
  }

  size_t CycleLength() const override { return inputs_.size(); }
  std::string OpName(size_t index) const override { return inputs_[index].name; }

  void Run(size_t index, uint64_t op, Tracer* tracer) override {
    std::optional<resilience::ScopedFaultInjection> faults;
    if (faulted_) faults.emplace(CrashStorm());
    const Tracer::Scope span = tracer->Open("core.run", op);
    run_ = RunJoin(inputs_[index]);
  }

  std::string Check(size_t index, std::string* error) override {
    std::string fingerprint = ResultFingerprint(inputs_[index], run_, error);
    run_ = JoinRun();
    return fingerprint;
  }

  const std::vector<QueryInput>& ProbeInputs() const override { return inputs_; }

 private:
  MakeInputs make_inputs_;
  bool faulted_;
  std::vector<QueryInput> inputs_;
  JoinRun run_;
};

/// Query-service sessions with the plan cache off, so every query plans.
/// Each operation starts a service, registers the catalog, and serves one
/// session whose client stream is seeded by the run seed and the operation
/// number: sessions differ, so a run's median spans many request mixes.
class ServiceNoCache : public Workload {
 public:
  /// The catalog is the workload's fixed schema; the seed drives only the
  /// client streams.
  SetupTimes Setup(uint64_t seed) override {
    seed_ = seed;
    return BuildInputs(&inputs_, [] {
      Rng rng(kCatalogSeed);
      workload::RandomAcyclicOptions shape;
      shape.min_edges = 4;
      shape.max_edges = 8;
      std::vector<QueryInput> inputs;
      while (inputs.size() < 24) {
        // Every third shape is a degree-two (usually cyclic) query; keep only
        // connected, reduced ones so no entry degenerates into a product.
        Hypergraph query = inputs.size() % 3 == 2 ? workload::RandomDegreeTwoQuery(&rng, 5, 7)
                                                  : workload::RandomAcyclicQuery(&rng, shape);
        if (query.ConnectedComponents().size() != 1 || !query.IsReduced()) continue;
        Instance instance = workload::MatchingInstance(query, 1000);
        std::string name = "q";
        name += std::to_string(inputs.size());
        inputs.push_back(QueryInput{std::move(name), std::move(query), std::move(instance)});
      }
      return inputs;
    });
  }

  size_t CycleLength() const override { return 1; }
  std::string OpName(size_t) const override { return "session"; }

  void Run(size_t, uint64_t op, Tracer* tracer) override {
    service::ServiceConfig config;
    config.total_servers = 4 * kServers;
    config.servers_per_query = kServers;
    config.cache_enabled = false;
    config.workload.clients = 2;
    config.workload.queries_per_client = 8;
    config.workload.mode = service::ArrivalMode::kOpenLoop;
    config.workload.zipf_skew = 1.1;
    config.workload.seed = SplitSeed(seed_, op);
    {
      const Tracer::Scope span = tracer->Open("service.register", op);
      service_ = std::make_unique<service::QueryService>(config);
      for (const QueryInput& input : inputs_) {
        service_->RegisterQuery(input.name, input.query, input.instance);
      }
    }
    const Tracer::Scope span = tracer->Open("service.run", op);
    stats_ = service_->Run();
  }

  /// Every entry a session executed must reproduce the entry's reference
  /// load fingerprint, and the session must report no load mismatch. The
  /// returned fingerprint summarizes the reference table.
  std::string Check(size_t, std::string* error) override {
    if (references_.empty()) BuildReferences(error);
    for (size_t i = 0; i < references_.size() && error->empty(); ++i) {
      const service::LoadFingerprint& seen = stats_.entry_fingerprints[i];
      if (seen.executed && !(seen == references_[i])) {
        *error = inputs_[i].name + ": session loads differ from the standalone pipeline's";
      }
    }
    if (error->empty() && stats_.load_mismatches > 0) {
      *error = "session reported " + std::to_string(stats_.load_mismatches) + " load mismatches";
    }
    detail_ = {
        {"service.sim_throughput_qpk", stats_.throughput_qpk},
        {"service.sim_latency_p99_ticks", static_cast<double>(stats_.latency_p99_ticks)},
        {"service.load_mismatches", static_cast<double>(stats_.load_mismatches)},
        {"service.plan_bypasses", static_cast<double>(stats_.plan_bypasses)},
        {"service.queries_per_session", static_cast<double>(stats_.completed)},
    };
    stats_ = service::ServiceRunStats();
    service_.reset();
    return "catalog=" + Hex(references_hash_);
  }

  const std::vector<QueryInput>& ProbeInputs() const override { return inputs_; }
  std::map<std::string, double> Detail() const override { return detail_; }

 private:
  static constexpr uint64_t kCatalogSeed = 0x5E41CEull;

  /// Runs every catalog entry's planned pipeline standalone: with collection
  /// on, its output count must match the oracle's; charge-only, as the
  /// service runs it, it gives the entry's reference load fingerprint.
  void BuildReferences(std::string* error) {
    uint64_t hash = 0;
    for (const QueryInput& input : inputs_) {
      const service::ShapeCanon canon = service::CanonicalizeShape(input.query);
      const service::CachedPlan plan =
          service::ComputePlan(input.query, input.instance, kServers, canon);
      const service::ExecutionResult collected =
          service::ExecuteRegistered(input.query, input.instance, plan, kServers, true);
      if (collected.fingerprint.output_count != input.oracle_rows && error->empty()) {
        *error = input.name + ": service pipeline produced " +
                 std::to_string(collected.fingerprint.output_count) + " rows vs oracle " +
                 std::to_string(input.oracle_rows);
      }
      const service::LoadFingerprint reference =
          service::ExecuteRegistered(input.query, input.instance, plan, kServers, false)
              .fingerprint;
      for (const uint64_t field : {reference.max_load, uint64_t{reference.rounds},
                                   reference.total_communication, reference.servers_used,
                                   reference.load_threshold, reference.output_count,
                                   reference.tracker_hash}) {
        hash = HashCombine(hash, field);
      }
      references_.push_back(reference);
    }
    references_hash_ = hash;
  }

  uint64_t seed_ = 0;
  std::vector<QueryInput> inputs_;
  std::vector<service::LoadFingerprint> references_;
  uint64_t references_hash_ = 0;
  std::unique_ptr<service::QueryService> service_;
  service::ServiceRunStats stats_;
  std::map<std::string, double> detail_;
};

/// Discards everything written to std::cout while alive.
class MutedStdout {
 public:
  MutedStdout() : saved_(std::cout.rdbuf(&null_)) {}
  ~MutedStdout() { std::cout.rdbuf(saved_); }
  MutedStdout(const MutedStdout&) = delete;
  MutedStdout& operator=(const MutedStdout&) = delete;

 private:
  class NullBuffer : public std::streambuf {
   protected:
    int overflow(int c) override { return traits_type::not_eof(c); }
    std::streamsize xsputn(const char*, std::streamsize count) override { return count; }
  };

  NullBuffer null_;
  std::streambuf* saved_;
};

/// Load fingerprint of one experiment report: its headline load, every
/// profiled run's load summary, and its exchange volume.
uint64_t ReportHash(const telemetry::RunReport& report) {
  uint64_t h = HashCombine(report.max_load, report.rounds);
  for (const telemetry::LoadSkewProfile& profile : report.load_profiles) {
    h = HashCombine(h, StringHash(profile.name));
    h = HashCombine(h, profile.num_servers);
    h = HashCombine(h, profile.max_load);
    h = HashCombine(h, profile.total_communication);
    for (const telemetry::RoundLoadStats& round : profile.rounds) {
      h = HashCombine(HashCombine(h, round.max_load), round.total);
    }
  }
  h = HashCombine(h, report.metrics.CounterValue("exchange.count"));
  return HashCombine(h, report.metrics.CounterValue("exchange.tuples_moved"));
}

/// One pass of the registered paper experiments, as `coverpack_bench` runs
/// them, with their text reports discarded.
class PaperSuite : public Workload {
 public:
  explicit PaperSuite(bool smoke) : smoke_(smoke) {
    for (const bench::Experiment& experiment : bench::AllExperiments()) {
      // The smoke subset keeps the fast experiments but planner_ablation,
      // which alone takes most of a pass.
      if (smoke && (!experiment.fast || std::string(experiment.id) == "planner_ablation")) {
        continue;
      }
      experiments_.push_back(&experiment);
    }
  }

  /// The suite's experiments build their own inputs at their fixed seeds;
  /// `seed` picks only the inputs of the layer probes.
  SetupTimes Setup(uint64_t seed) override {
    return BuildInputs(&inputs_, [seed] {
      std::vector<QueryInput> inputs;
      inputs.push_back(ZipfInput("path5", catalog::Path(5), 5000, 5000, seed, 0));
      inputs.push_back(ZipfInput("triangle", catalog::Triangle(), 5000, 1000, seed, 1));
      return inputs;
    });
  }

  size_t CycleLength() const override { return 1; }
  std::string OpName(size_t) const override { return smoke_ ? "smoke_pass" : "pass"; }

  void Run(size_t, uint64_t op, Tracer* tracer) override {
    for (const bench::Experiment* experiment : experiments_) {
      const Clock::time_point start = Clock::now();
      {
        const Tracer::Scope span = tracer->Open(std::string("suite.") + experiment->id, op);
        const MutedStdout muted;
        reports_.push_back(bench::RunExperiment(*experiment));
      }
      experiment_ms_[experiment->id].push_back(MsBetween(start, Clock::now()));
    }
  }

  std::string Check(size_t, std::string* error) override {
    std::string fingerprint;
    for (const telemetry::RunReport& report : reports_) {
      if (!report.ok && error->empty()) *error = report.id + " reported DEVIATION";
      if (!fingerprint.empty()) fingerprint += ",";
      fingerprint += report.id + ":" + Hex(ReportHash(report));
    }
    reports_.clear();
    return fingerprint;
  }

  const std::vector<QueryInput>& ProbeInputs() const override { return inputs_; }

  std::map<std::string, double> Detail() const override {
    std::map<std::string, double> detail;
    for (const auto& [id, samples] : experiment_ms_) {
      detail["suite." + id + "_ms"] = Median(samples);
    }
    return detail;
  }

 private:
  bool smoke_;
  std::vector<const bench::Experiment*> experiments_;
  std::vector<QueryInput> inputs_;
  std::vector<telemetry::RunReport> reports_;
  std::map<std::string, std::vector<double>> experiment_ms_;
};

}  // namespace

JoinRun RunJoin(const QueryInput& input) {
  JoinRun run;
  if (input.acyclic) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = true;
    options.p = kServers;
    AcyclicRunResult result = ComputeAcyclicJoin(input.query, input.instance, options);
    run.results = std::move(result.results);
    run.output_count = result.output_count;
    run.rounds = result.rounds;
    run.max_load = result.max_load;
    run.total_communication = result.total_communication;
    run.load_tracker = std::move(result.load_tracker);
  } else {
    OneRoundOptions options;
    options.collect = true;
    OneRoundResult result =
        ComputeOneRoundSkewAware(input.query, input.instance, kServers, options);
    run.results = std::move(result.results);
    run.output_count = result.output_count;
    run.rounds = result.rounds;
    run.max_load = result.max_load;
    run.total_communication = result.load_tracker.TotalCommunication();
    run.load_tracker = std::move(result.load_tracker);
  }
  return run;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> kNames = {"acyclic_skew", "cyclic_faulted",
                                                  "service_nocache", "paper_suite"};
  return kNames;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, bool smoke) {
  if (name == "acyclic_skew") return std::make_unique<JoinWorkload>(AcyclicSkewInputs, false);
  if (name == "cyclic_faulted") return std::make_unique<JoinWorkload>(CyclicInputs, true);
  if (name == "service_nocache") return std::make_unique<ServiceNoCache>();
  if (name == "paper_suite") return std::make_unique<PaperSuite>(smoke);
  return nullptr;
}

}  // namespace perf
}  // namespace coverpack

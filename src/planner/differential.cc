#include "planner/differential.h"

#include <algorithm>
#include <sstream>
#include <utility>

#include "planner/execute.h"
#include "query/catalog.h"
#include "util/logging.h"
#include "util/math_util.h"
#include "util/random.h"
#include "workload/generators.h"
#include "workload/random_queries.h"

namespace coverpack {
namespace planner {

bool DifferentialOutcome::ChooserWithin(double slack) const {
  const uint64_t input_floor = CeilDiv(stats.total_rows, std::max<uint64_t>(1, p));
  const uint64_t yardstick = std::max(best_actual_load, input_floor);
  return static_cast<double>(chosen_actual_load) <=
         slack * static_cast<double>(yardstick);
}

std::string DifferentialOutcome::Repro(const std::string& case_name,
                                       const Hypergraph& query, uint32_t p) const {
  std::ostringstream out;
  out << "=== differential repro: " << case_name << " (p=" << p << ") ===\n"
      << "query: " << query.ToString() << "\n"
      << stats.ToString(query) << decision.table.ToString()
      << "decision: " << decision.Digest() << "\n"
      << "rationale: " << decision.rationale << "\n";
  for (const AlgorithmRun& run : runs) {
    out << "actual " << AlgorithmName(run.algorithm) << ": load=" << run.max_load
        << " rounds=" << run.rounds << " ticks=" << run.actual_ticks
        << " out=" << run.output_count << "\n";
  }
  out << "chosen actual load=" << chosen_actual_load << " vs best=" << best_actual_load
      << " (" << AlgorithmName(best_algorithm) << ")\n";
  return out.str();
}

DifferentialOutcome EvaluateCase(const Hypergraph& query, const Instance& instance,
                                 uint32_t p) {
  DifferentialOutcome outcome;
  outcome.stats = BuildStatsSnapshot(query, instance);
  outcome.p = p;
  outcome.decision = PlanChooser::Choose(query, p, outcome.stats);

  for (const CostEstimate& entry : outcome.decision.table.entries) {
    if (!entry.applicable) continue;
    AlgorithmRun run{Execute(entry.algorithm, query, instance, p, /*collect=*/false)};
    run.algorithm = entry.algorithm;
    run.actual_ticks = ExecutionTicks(run.load_tracker);
    outcome.runs.push_back(std::move(run));
  }

  bool found_best = false;
  bool found_chosen = false;
  for (const AlgorithmRun& run : outcome.runs) {
    if (!found_best || run.max_load < outcome.best_actual_load) {
      found_best = true;
      outcome.best_actual_load = run.max_load;
      outcome.best_algorithm = run.algorithm;
    }
    if (run.algorithm == outcome.decision.algorithm) {
      found_chosen = true;
      outcome.chosen_actual_load = run.max_load;
      outcome.chosen_actual_ticks = run.actual_ticks;
    }
  }
  CP_CHECK(found_chosen) << "chooser picked an algorithm the menu did not run";
  return outcome;
}

std::vector<DifferentialCase> BuildDifferentialCorpus(uint64_t seed,
                                                      uint32_t random_cases) {
  std::vector<DifferentialCase> corpus;
  const auto add = [&](const std::string& name, Hypergraph query, Instance instance) {
    corpus.push_back({name, std::move(query), std::move(instance)});
  };

  // Fixed block: the named shapes the rest of the repo exercises, under
  // all three distribution regimes.
  {
    Rng rng(SplitSeed(seed, 0));
    add("path3_matching", catalog::Path(3),
        workload::MatchingInstance(catalog::Path(3), 1024));
    add("path4_uniform", catalog::Path(4),
        workload::UniformInstance(catalog::Path(4), 1024, 4096, &rng));
    add("star3_zipf", catalog::Star(3),
        workload::ZipfInstance(catalog::Star(3), 1024, 1024, 1.1, &rng));
    add("stardual3_matching", catalog::StarDual(3),
        workload::MatchingInstance(catalog::StarDual(3), 1024));
    add("semijoin_matching", catalog::SemiJoinExample(),
        workload::MatchingInstance(catalog::SemiJoinExample(), 1024));
    add("alpha_not_berge_uniform", catalog::AlphaNotBerge(),
        workload::UniformInstance(catalog::AlphaNotBerge(), 512, 2048, &rng));
    add("triangle_uniform", catalog::Triangle(),
        workload::UniformInstance(catalog::Triangle(), 512, 512, &rng));
    add("cycle4_matching", catalog::Cycle(4),
        workload::MatchingInstance(catalog::Cycle(4), 1024));
    add("box_uniform", catalog::BoxJoin(),
        workload::UniformInstance(catalog::BoxJoin(), 512, 1024, &rng));
    add("lw3_uniform", catalog::LoomisWhitney(3),
        workload::UniformInstance(catalog::LoomisWhitney(3), 512, 512, &rng));
  }

  // Random block: generator kind cycles with the index; every case gets
  // its own split seed, so dropping or adding cases never shifts streams.
  for (uint32_t i = 0; i < random_cases; ++i) {
    Rng rng(SplitSeed(seed, 1 + i));
    const uint64_t n = 256u << rng.Uniform(3);  // 256, 512, or 1024
    switch (i % 4) {
      case 0: {
        Hypergraph query = workload::RandomAcyclicQuery(&rng);
        Instance instance = workload::MatchingInstance(query, n);
        add("rand_acyclic_matching_" + std::to_string(i), std::move(query),
            std::move(instance));
        break;
      }
      case 1: {
        Hypergraph query = workload::RandomAcyclicQuery(&rng);
        Instance instance = workload::UniformInstance(query, n, 4 * n, &rng);
        add("rand_acyclic_uniform_" + std::to_string(i), std::move(query),
            std::move(instance));
        break;
      }
      case 2: {
        Hypergraph query = workload::RandomAcyclicQuery(&rng);
        Instance instance = workload::ZipfInstance(query, n, n, 1.1, &rng);
        add("rand_acyclic_zipf_" + std::to_string(i), std::move(query),
            std::move(instance));
        break;
      }
      default: {
        const uint32_t edges = 3 + static_cast<uint32_t>(rng.Uniform(3));
        Hypergraph query = workload::RandomDegreeTwoQuery(&rng, edges, edges + 1);
        Instance instance = workload::UniformInstance(query, n, 2 * n, &rng);
        add("rand_degree2_uniform_" + std::to_string(i), std::move(query),
            std::move(instance));
        break;
      }
    }
  }
  return corpus;
}

}  // namespace planner
}  // namespace coverpack

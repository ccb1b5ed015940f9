/// Differential oracle for the plan chooser (ctest label: planner): over a
/// seeded corpus of ~60 queries, run *every* applicable algorithm of the
/// menu for real and check that the chooser's pick (a) lands within 10% of
/// the best measured bottleneck load on >= 95% of cases — with the best
/// floored at one balanced input share, since any pick at or below that
/// floor is as good as optimal — and (b) never loses the theoretical
/// exponent (<= 4x the best on *every* case). Any violation prints the
/// full repro: query, per-relation stats, cost table, and every measured
/// run, so a failure is replayable from the log alone. Also checks that
/// planner::Execute, the one runner the harness and the query service
/// share, returns each algorithm's run, rows included, exactly as its own
/// core entry point does.

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/acyclic_join.h"
#include "core/one_round.h"
#include "core/output_balanced.h"
#include "planner/differential.h"
#include "planner/execute.h"
#include "planner/plan_chooser.h"
#include "planner/stats.h"
#include "query/hypergraph.h"
#include "relation/oracle.h"
#include "util/thread_pool.h"

namespace coverpack {
namespace planner {
namespace {

// Same corpus family and accuracy knobs as the planner_ablation bench
// experiment. p = 32 puts the corpus sizes (n = 256..1024 rows/relation)
// in the regime where the algorithms' asymptotic differences dominate
// their data-dependent constants; at much larger p the heavy-value
// constant factors of the Zipf cases drown the signal the estimators can
// legitimately see (16-bucket histograms + max degrees).
constexpr uint64_t kCorpusSeed = 0x0D1FFE7E;
constexpr uint32_t kRandomCases = 50;  // + 10 fixed = 60 cases
constexpr uint32_t kServers = 32;
constexpr double kWithinSlack = 1.10;
constexpr double kWithinQuota = 0.95;
constexpr double kExponentSlack = 4.0;

class PlannerDifferentialTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_threads_ = ThreadPool::GlobalThreads(); }
  void TearDown() override { ThreadPool::SetGlobalThreads(saved_threads_); }

 private:
  unsigned saved_threads_ = 0;
};

TEST_F(PlannerDifferentialTest, ChooserTracksBestMeasuredLoadOverSeededCorpus) {
  const std::vector<DifferentialCase> corpus =
      BuildDifferentialCorpus(kCorpusSeed, kRandomCases);
  ASSERT_GE(corpus.size(), 60u);

  uint32_t within = 0;
  std::vector<std::string> misses;
  for (const DifferentialCase& c : corpus) {
    const DifferentialOutcome outcome = EvaluateCase(c.query, c.instance, kServers);
    ASSERT_FALSE(outcome.runs.empty()) << c.name;
    if (outcome.ChooserWithin(kWithinSlack)) {
      ++within;
    } else {
      misses.push_back(outcome.Repro(c.name, c.query, kServers));
    }
    // The hard guarantee: the pick never loses the theoretical exponent.
    EXPECT_TRUE(outcome.ChooserWithin(kExponentSlack))
        << outcome.Repro(c.name, c.query, kServers);
  }

  const double fraction = static_cast<double>(within) /
                          static_cast<double>(corpus.size());
  if (fraction < kWithinQuota) {
    for (const std::string& repro : misses) ADD_FAILURE() << repro;
  }
  EXPECT_GE(fraction, kWithinQuota)
      << within << "/" << corpus.size() << " cases within "
      << (kWithinSlack - 1.0) * 100 << "% of the best measured load";
}

TEST_F(PlannerDifferentialTest, ChosenAlgorithmAlwaysAppearsInTheMeasuredMenu) {
  // EvaluateCase CP_CHECKs this internally; here we assert the contract
  // explicitly over a smaller corpus so a regression names the case.
  const std::vector<DifferentialCase> corpus = BuildDifferentialCorpus(0xBEEF, 12);
  for (const DifferentialCase& c : corpus) {
    const DifferentialOutcome outcome = EvaluateCase(c.query, c.instance, kServers);
    bool found = false;
    for (const AlgorithmRun& run : outcome.runs) {
      if (run.algorithm == outcome.decision.algorithm) found = true;
    }
    EXPECT_TRUE(found) << outcome.Repro(c.name, c.query, kServers);
  }
}

TEST_F(PlannerDifferentialTest, DecisionsAreThreadCountInvariantOverCorpus) {
  // The chooser reads shard-parallel statistics; its decision digest must
  // not depend on how many threads built them.
  const std::vector<DifferentialCase> corpus = BuildDifferentialCorpus(0xC0FFEE, 8);
  std::vector<std::string> serial;
  ThreadPool::SetGlobalThreads(1);
  for (const DifferentialCase& c : corpus) {
    const StatsSnapshot stats = BuildStatsSnapshot(c.query, c.instance);
    serial.push_back(PlanChooser::Choose(c.query, kServers, stats).Digest());
  }
  ThreadPool::SetGlobalThreads(4);
  for (size_t i = 0; i < corpus.size(); ++i) {
    const StatsSnapshot stats =
        BuildStatsSnapshot(corpus[i].query, corpus[i].instance);
    const std::string digest =
        PlanChooser::Choose(corpus[i].query, kServers, stats).Digest();
    EXPECT_EQ(serial[i], digest) << corpus[i].name;
  }
}

/// Reference for Execute: the algorithm's core entry point, called
/// directly.
RunResult DirectRun(Algorithm algorithm, const DifferentialCase& c, bool collect,
                    uint64_t load_threshold) {
  if (algorithm == Algorithm::kAcyclicMultiRound) {
    AcyclicRunOptions options;
    options.policy = RunPolicy::kOptimal;
    options.collect = collect;
    options.p = kServers;
    options.load_threshold = load_threshold;
    return ComputeAcyclicJoin(c.query, c.instance, options);
  }
  if (algorithm == Algorithm::kOutputBalanced) {
    OutputBalancedOptions options;
    options.collect = collect;
    return ComputeOutputBalanced(c.query, c.instance, kServers, options);
  }
  OneRoundOptions options;
  options.collect = collect;
  return ComputeOneRoundSkewAware(c.query, c.instance, kServers, options);
}

TEST_F(PlannerDifferentialTest, ExecuteMatchesDirectComputeCalls) {
  // Connected acyclic shapes run all three algorithms; the cyclic ones
  // run one-round only. Small outputs keep collect mode cheap.
  const std::set<std::string> kCases = {"path3_matching", "semijoin_matching",
                                        "triangle_uniform", "cycle4_matching"};
  const std::vector<DifferentialCase> corpus = BuildDifferentialCorpus(kCorpusSeed, 0);
  size_t checked_cases = 0;
  std::set<Algorithm> algorithms_seen;
  for (const DifferentialCase& c : corpus) {
    if (kCases.count(c.name) == 0) continue;
    ++checked_cases;
    const PlanDecision decision =
        PlanChooser::Choose(c.query, kServers, BuildStatsSnapshot(c.query, c.instance));
    // The threshold the service passes; Execute must hand it to the
    // multi-round run and ignore it everywhere else.
    const uint64_t threshold = decision.table.thm5_threshold;
    for (const CostEstimate& entry : decision.table.entries) {
      if (!entry.applicable) continue;
      algorithms_seen.insert(entry.algorithm);
      for (bool collect : {false, true}) {
        const std::string label = c.name + "/" + AlgorithmName(entry.algorithm) +
                                  (collect ? "/collect" : "/charge-only");
        const RunResult got =
            Execute(entry.algorithm, c.query, c.instance, kServers, collect, threshold);
        const RunResult want = DirectRun(entry.algorithm, c, collect, threshold);
        EXPECT_EQ(got.max_load, want.max_load) << label;
        EXPECT_EQ(got.rounds, want.rounds) << label;
        EXPECT_EQ(got.total_communication, want.total_communication) << label;
        EXPECT_EQ(got.servers_used, want.servers_used) << label;
        EXPECT_EQ(got.load_threshold, want.load_threshold) << label;
        EXPECT_EQ(got.output_count, want.output_count) << label;
        EXPECT_TRUE(got.load_tracker == want.load_tracker) << label;
        EXPECT_EQ(got.results.attrs(), want.results.attrs()) << label;
        EXPECT_EQ(got.results.raw(), want.results.raw()) << label;
        if (collect) {
          // Execute returns the rows: the join itself, not an empty relation.
          EXPECT_EQ(got.results.size(), got.output_count) << label;
          EXPECT_TRUE(got.results.SameContentAs(GenericJoin(c.query, c.instance))) << label;
        }
      }
    }
  }
  EXPECT_EQ(checked_cases, kCases.size());
  EXPECT_EQ(algorithms_seen.size(), 3u);
}

TEST(PlannerAlgorithmNameTest, ParseAlgorithmInvertsAlgorithmName) {
  for (Algorithm algorithm : {Algorithm::kOneRound, Algorithm::kAcyclicMultiRound,
                              Algorithm::kOutputBalanced}) {
    const std::optional<Algorithm> parsed = ParseAlgorithm(AlgorithmName(algorithm));
    ASSERT_TRUE(parsed.has_value()) << AlgorithmName(algorithm);
    EXPECT_EQ(*parsed, algorithm);
  }
  // "auto" means "let the chooser decide", which is no algorithm.
  EXPECT_FALSE(ParseAlgorithm("auto").has_value());
  EXPECT_FALSE(ParseAlgorithm("").has_value());
  EXPECT_FALSE(ParseAlgorithm("Acyclic").has_value());
}

}  // namespace
}  // namespace planner
}  // namespace coverpack

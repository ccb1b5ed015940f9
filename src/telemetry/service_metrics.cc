#include "telemetry/service_metrics.h"

#include <vector>

namespace coverpack {
namespace telemetry {

void SnapshotServiceStatsInto(const service::ServiceRunStats& stats,
                              const std::string& scenario, Metrics* metrics) {
  const std::string service_prefix = "service." + scenario + ".";
  const std::string cache_prefix = "cache." + scenario + ".";

  metrics->AddCounter(service_prefix + "arrivals", stats.arrivals);
  metrics->AddCounter(service_prefix + "completed", stats.completed);
  metrics->AddCounter(service_prefix + "plan_bypasses", stats.plan_bypasses);
  metrics->AddCounter(service_prefix + "load_mismatches", stats.load_mismatches);
  metrics->SetGauge(service_prefix + "sim_end_ticks",
                    static_cast<double>(stats.sim_end_ticks));
  metrics->SetGauge(service_prefix + "throughput_qpk", stats.throughput_qpk);
  metrics->SetGauge(service_prefix + "latency_p50_ticks",
                    static_cast<double>(stats.latency_p50_ticks));
  metrics->SetGauge(service_prefix + "latency_p99_ticks",
                    static_cast<double>(stats.latency_p99_ticks));
  metrics->SetGauge(service_prefix + "latency_max_ticks",
                    static_cast<double>(stats.latency_max_ticks));
  metrics->SetGauge(service_prefix + "latency_mean_ticks", stats.latency_mean_ticks);
  metrics->SetGauge(service_prefix + "queue_wait_p99_ticks",
                    static_cast<double>(stats.queue_wait_p99_ticks));
  metrics->SetGauge(service_prefix + "max_queue_depth",
                    static_cast<double>(stats.max_queue_depth));
  metrics->SetGauge(service_prefix + "peak_servers_leased",
                    static_cast<double>(stats.peak_servers_leased));

  // The full latency distribution, tick-bucketed in powers of two.
  static const std::vector<double> kLatencyBounds{64,   128,  256,   512,  1024,
                                                  2048, 4096, 8192, 16384, 65536};
  Metrics::Series& latencies =
      metrics->TouchSeries(service_prefix + "latency_ticks", kLatencyBounds);
  for (uint64_t latency : stats.latencies_sorted) {
    latencies.samples.push_back(static_cast<double>(latency));
  }

  metrics->AddCounter(cache_prefix + "hits", stats.cache.hits);
  metrics->AddCounter(cache_prefix + "misses", stats.cache.misses);
  metrics->AddCounter(cache_prefix + "insertions", stats.cache.insertions);
  metrics->AddCounter(cache_prefix + "evictions", stats.cache.evictions);
  metrics->AddCounter(cache_prefix + "collisions", stats.cache.collisions);
  metrics->SetGauge(cache_prefix + "size", static_cast<double>(stats.cache.size));
  metrics->SetGauge(cache_prefix + "capacity", static_cast<double>(stats.cache.capacity));
}

}  // namespace telemetry
}  // namespace coverpack

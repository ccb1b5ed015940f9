#include "telemetry/run_report.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <string_view>
#include <utility>

#include "util/audit.h"

namespace coverpack {
namespace telemetry {

namespace {

JsonValue HistogramJson(const Metrics::Series& series) {
  std::vector<uint64_t> counts(series.bounds.size() + 1, 0);
  double sum = 0.0;
  for (double sample : series.samples) {
    const auto bound = std::find_if(series.bounds.begin(), series.bounds.end(),
                                    [sample](double b) { return sample <= b; });
    counts[bound - series.bounds.begin()] += 1;
    sum += sample;
  }
  CP_AUDIT_EQ(std::accumulate(counts.begin(), counts.end(), uint64_t{0}),
              series.samples.size());
  JsonValue bounds = JsonValue::Array();
  for (double bound : series.bounds) bounds.Append(JsonValue::Double(bound));
  JsonValue count_array = JsonValue::Array();
  for (uint64_t count : counts) count_array.Append(JsonValue::Uint(count));
  JsonValue value = JsonValue::Object();
  value.Set("bounds", std::move(bounds));
  value.Set("counts", std::move(count_array));
  value.Set("total_count", static_cast<uint64_t>(series.samples.size()));
  value.Set("sum", sum);
  return value;
}

}  // namespace

JsonValue MetricsJson(const Metrics& metrics) {
  JsonValue counters = JsonValue::Object();
  for (const auto& [name, count] : metrics.counters) counters.Set(name, count);
  std::map<std::string_view, double> gauge_values(metrics.gauges.begin(), metrics.gauges.end());
  for (const auto& [name, max] : metrics.maxima) gauge_values[name] = static_cast<double>(max);
  JsonValue gauges = JsonValue::Object();
  for (const auto& [name, gauge] : gauge_values) gauges.Set(std::string(name), gauge);
  JsonValue histograms = JsonValue::Object();
  for (const auto& [name, series] : metrics.series) histograms.Set(name, HistogramJson(series));
  JsonValue timers = JsonValue::Object();
  for (const auto& [name, timer] : metrics.timers) {
    JsonValue entry = JsonValue::Object();
    entry.Set("count", timer.count);
    entry.Set("total_ms", timer.total_ms);
    entry.Set("min_ms", timer.min_ms);
    entry.Set("max_ms", timer.max_ms);
    timers.Set(name, std::move(entry));
  }
  JsonValue value = JsonValue::Object();
  value.Set("counters", std::move(counters));
  value.Set("gauges", std::move(gauges));
  value.Set("histograms", std::move(histograms));
  value.Set("timers", std::move(timers));
  return value;
}

void RunReport::AddLoadProfile(LoadSkewProfile profile) {
  max_load = std::max(max_load, profile.max_load);
  rounds = std::max(rounds, profile.num_rounds);
  load_profiles.push_back(std::move(profile));
}

JsonValue RunReport::ToJson() const {
  JsonValue value = JsonValue::Object();
  value.Set("schema_version", kSchemaVersion);
  value.Set("id", id);
  value.Set("display_id", display_id);
  value.Set("claim", claim);
  value.Set("verdict", verdict());
  value.Set("ok", ok);
  value.Set("wall_ms", wall_ms);
  value.Set("threads", static_cast<uint64_t>(threads));
  value.Set("wall_ms_serial", wall_ms_serial);
  value.Set("speedup", speedup);
  value.Set("max_load", max_load);
  value.Set("rounds", rounds);
  value.Set("params", params);
  JsonValue exponent_array = JsonValue::Array();
  for (const ExponentFit& fit : exponents) {
    JsonValue entry = JsonValue::Object();
    entry.Set("label", fit.label);
    entry.Set("fitted", fit.fitted);
    entry.Set("theory", fit.theory);
    entry.Set("tolerance", fit.tolerance);
    entry.Set("match", fit.match);
    exponent_array.Append(std::move(entry));
  }
  value.Set("exponents", std::move(exponent_array));
  JsonValue profile_array = JsonValue::Array();
  for (const LoadSkewProfile& profile : load_profiles) {
    profile_array.Append(profile.ToJson());
  }
  value.Set("load_profiles", std::move(profile_array));
  value.Set("metrics", MetricsJson(metrics));
  return value;
}

}  // namespace telemetry
}  // namespace coverpack

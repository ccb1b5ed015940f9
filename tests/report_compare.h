/// \file report_compare.h
/// \brief Shared helpers for comparing RunReports and relations bit-for-bit
/// across test binaries (determinism, chaos/resilience). Load trackers
/// compare with LoadTracker's own operator==.
///
/// Header-only on purpose: the test binaries that need these (cp_tests,
/// cp_determinism_tests, cp_chaos_tests) link different library sets, and
/// a tests-utility library would drag the bench registry into all of them.

#ifndef COVERPACK_TESTS_REPORT_COMPARE_H_
#define COVERPACK_TESTS_REPORT_COMPARE_H_

#include <initializer_list>
#include <sstream>
#include <string>

#include "relation/relation.h"
#include "telemetry/run_report.h"

namespace coverpack {
namespace testutil {

/// Serializes `report` for a byte comparison: without its wall-clock
/// timers, the only report content allowed to differ between two runs of
/// one experiment, and without every metric in `dropped_namespaces` (e.g.
/// {"fault.", "recovery."} to hold a faulted run to a clean one).
inline std::string ComparableJson(const telemetry::RunReport& report,
                                  std::initializer_list<const char*> dropped_namespaces = {}) {
  telemetry::RunReport copy = report;
  copy.metrics.EraseTimers();
  for (const char* prefix : dropped_namespaces) copy.metrics.EraseWithPrefix(prefix);
  std::ostringstream out;
  copy.ToJson().Write(out);
  return out.str();
}

inline bool RelationsEqual(const Relation& a, const Relation& b) {
  if (!(a.attrs() == b.attrs()) || a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    auto ra = a.row(i), rb = b.row(i);
    for (size_t c = 0; c < ra.size(); ++c) {
      if (ra[c] != rb[c]) return false;
    }
  }
  return true;
}

}  // namespace testutil
}  // namespace coverpack

#endif  // COVERPACK_TESTS_REPORT_COMPARE_H_

/// \file cplint.h
/// \brief Project-invariant static analyzer for the coverpack tree.
///
/// cplint is a dependency-free, token/line-level linter (no libclang) that
/// enforces the repo-specific invariants which generic tooling cannot see:
/// the Exchange layer as the only load-charging site, determinism of every
/// run at any thread count, and the pairing of runtime audit discipline
/// with compile-time thread annotations. It is deliberately simple — a
/// comment/string-stripping scanner plus per-rule regexes — because every
/// rule it enforces is a *global textual* invariant ("this call only in
/// that file", "this token never without that one") rather than a
/// semantic property; the semantic layers are clang-tidy, TSan, CP_AUDIT,
/// and -Wthread-safety (DESIGN.md §4.8).
///
/// Rules (each suppressible per line with `// cplint: allow(<rule>)` on
/// the offending line or the line above):
///
///  * charge-choke-point    — LoadTracker charging (`*tracker*.Add(...)`)
///                            appears only in src/mpc/exchange.cc.
///  * no-wall-clock         — no std::chrono::system_clock, time(),
///                            clock(), localtime/gmtime/strftime, or
///                            __DATE__/__TIME__ anywhere; wall-clock reads
///                            would leak into reports and break
///                            bit-identical reruns. Timers read
///                            steady_clock, which the rule never matches.
///  * no-unseeded-rng       — no std::random_device, rand()/srand(),
///                            drand48 family, default_random_engine, or a
///                            std::mt19937 constructed without a
///                            SplitSeed-derived seed; all randomness must
///                            flow from the experiment seed.
///  * no-unordered-iteration— no range-for over an unordered_map/set
///                            declared in the same file; iteration order
///                            is implementation-defined, the classic
///                            cross-thread nondeterminism leak. Sites
///                            whose order provably cannot escape (pure
///                            commutative accumulation, or output sorted
///                            immediately after) carry an allow() with a
///                            rationale.
///  * audit-pairing         — a file declaring a mutex member must carry
///                            clang thread-safety annotations (CP_GUARDED_BY
///                            et al.), pairing the runtime CP_AUDIT mutex
///                            discipline with the compile-time analysis.
///  * include-hygiene       — headers include what they use from util/
///                            (CP_CHECK* → util/logging.h, CP_AUDIT* →
///                            util/audit.h, Mutex/MutexLock → util/mutex.h,
///                            CP_GUARDED_BY → util/thread_annotations.h,
///                            SplitSeed/Rng → util/random.h, HashCombine →
///                            util/hash.h, ThreadPool → util/thread_pool.h).
///  * no-per-row-append     — no Relation::AppendRow call in src/mpc/ or
///                            src/query/: those layers are on every
///                            experiment's critical path, and the columnar
///                            substrate's contract is count-first bulk
///                            appends (AppendRows/AppendUninitialized) —
///                            one growth check and one contiguous copy per
///                            operator call instead of one per tuple.
///
/// Known limits, by design of a line-level tool: analysis is per file (an
/// unordered container returned by a function in another file is not
/// tracked), range-for headers must fit on one line, and type aliases are
/// not resolved. The fixtures in tests/cplint_fixtures/ pin the exact
/// supported shapes.

#ifndef COVERPACK_TOOLS_CPLINT_CPLINT_H_
#define COVERPACK_TOOLS_CPLINT_CPLINT_H_

#include <string>
#include <vector>

namespace coverpack {
namespace cplint {

/// One rule violation at a specific line.
struct Finding {
  std::string file;
  size_t line = 0;  ///< 1-based
  std::string rule;
  std::string message;
};

/// Name and one-line summary of a rule, for --list-rules and docs.
struct RuleInfo {
  std::string name;
  std::string summary;
};

/// The rule catalog, in canonical order.
const std::vector<RuleInfo>& Rules();

/// True iff `name` is a known rule.
bool IsRule(const std::string& name);

/// Lints one file's `content` as if it lived at `path` (forward-slash
/// separated; file-scoped exemptions match on path suffix, e.g.
/// "mpc/exchange.cc"). `rules` selects a subset; empty means all rules.
/// Findings suppressed by `// cplint: allow(<rule>)` are already removed.
std::vector<Finding> LintContent(const std::string& path, const std::string& content,
                                 const std::vector<std::string>& rules);

/// Reads and lints one file from disk. Unreadable files produce a single
/// finding under the pseudo-rule "io-error".
std::vector<Finding> LintFile(const std::string& path, const std::vector<std::string>& rules);

/// Expands a file-or-directory path into the sorted list of .h/.cc files
/// beneath it (a plain file is returned as-is if it has a lintable
/// extension).
std::vector<std::string> CollectSources(const std::string& path);

/// Strips comments and string/char-literal contents while preserving the
/// line structure (exposed for tests).
std::vector<std::string> StripForAnalysis(const std::string& content);

}  // namespace cplint
}  // namespace coverpack

#endif  // COVERPACK_TOOLS_CPLINT_CPLINT_H_

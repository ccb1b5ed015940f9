#include "cplint.h"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>

namespace coverpack {
namespace cplint {

namespace {

// ---- Rule catalog ----------------------------------------------------------

const char kChargeChokePoint[] = "charge-choke-point";
const char kNoWallClock[] = "no-wall-clock";
const char kNoUnseededRng[] = "no-unseeded-rng";
const char kNoUnorderedIteration[] = "no-unordered-iteration";
const char kAuditPairing[] = "audit-pairing";
const char kIncludeHygiene[] = "include-hygiene";
const char kNoPerRowAppend[] = "no-per-row-append";

// ---- Text utilities --------------------------------------------------------

bool EndsWith(const std::string& text, const std::string& suffix) {
  return text.size() >= suffix.size() &&
         text.compare(text.size() - suffix.size(), suffix.size(), suffix) == 0;
}

std::vector<std::string> SplitLines(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  for (char c : content) {
    if (c == '\n') {
      lines.push_back(current);
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) lines.push_back(current);
  return lines;
}

/// A file prepared for analysis: raw lines (for suppression comments),
/// stripped lines (comments and literal contents removed), and the
/// per-line set of allowed rules.
struct FileContext {
  std::string path;
  std::vector<std::string> raw;
  std::vector<std::string> stripped;
  /// allowed[i] holds the rules suppressed on 1-based line i+1.
  std::vector<std::set<std::string>> allowed;

  std::string Joined() const {
    std::string all;
    for (const std::string& line : stripped) {
      all += line;
      all += '\n';
    }
    return all;
  }
};

/// Parses `// cplint: allow(rule-a, rule-b)` out of a raw line. Returns
/// the listed rule names (empty when the directive is absent).
std::vector<std::string> ParseAllowDirective(const std::string& raw_line) {
  static const std::regex kDirective(R"(cplint:\s*allow\(([^)]*)\))");
  std::smatch match;
  std::vector<std::string> rules;
  if (!std::regex_search(raw_line, match, kDirective)) return rules;
  std::string list = match[1].str();
  std::string name;
  std::stringstream stream(list);
  while (std::getline(stream, name, ',')) {
    // trim
    size_t first = name.find_first_not_of(" \t");
    size_t last = name.find_last_not_of(" \t");
    if (first == std::string::npos) continue;
    rules.push_back(name.substr(first, last - first + 1));
  }
  return rules;
}

FileContext MakeContext(const std::string& path, const std::string& content) {
  FileContext ctx;
  ctx.path = path;
  ctx.raw = SplitLines(content);
  ctx.stripped = StripForAnalysis(content);
  ctx.allowed.resize(ctx.raw.size());
  for (size_t i = 0; i < ctx.raw.size(); ++i) {
    for (const std::string& rule : ParseAllowDirective(ctx.raw[i])) {
      // An allow covers its own line and the next one, so both trailing
      // comments and a standalone comment line above the code work.
      ctx.allowed[i].insert(rule);
      if (i + 1 < ctx.allowed.size()) ctx.allowed[i + 1].insert(rule);
    }
  }
  return ctx;
}

bool Allowed(const FileContext& ctx, size_t line_index, const std::string& rule) {
  return line_index < ctx.allowed.size() && ctx.allowed[line_index].count(rule) > 0;
}

void Emit(std::vector<Finding>* findings, const FileContext& ctx, size_t line_index,
          const std::string& rule, const std::string& message) {
  if (Allowed(ctx, line_index, rule)) return;
  findings->push_back(Finding{ctx.path, line_index + 1, rule, message});
}

// ---- Rules -----------------------------------------------------------------

/// charge-choke-point: any `<something>tracker[_ |()].Add(` outside
/// src/mpc/exchange.cc. The Exchange layer must stay the only site that
/// charges the load model (DESIGN.md §4c); a stray Add would silently
/// shift the paper's measured loads.
void CheckChargeChokePoint(const FileContext& ctx, std::vector<Finding>* findings) {
  if (EndsWith(ctx.path, "mpc/exchange.cc")) return;
  static const std::regex kCharge(
      R"([Tt]racker[A-Za-z0-9_]*(\(\))?\s*(\.|->)\s*Add\s*\()");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    if (std::regex_search(ctx.stripped[i], kCharge)) {
      Emit(findings, ctx, i, kChargeChokePoint,
           "LoadTracker charging outside mpc/exchange.cc; route the movement "
           "through Exchange::Execute");
    }
  }
}

/// no-wall-clock: wall-clock reads poison determinism (reports must be
/// byte-identical across reruns). steady_clock is fine — it is monotonic
/// and only feeds wall_ms fields and timers the comparison tooling masks —
/// so no file is exempt, the timer's own included.
void CheckNoWallClock(const FileContext& ctx, std::vector<Finding>* findings) {
  static const std::regex kPatterns[] = {
      std::regex(R"(system_clock)"),
      std::regex(R"((^|[^A-Za-z0-9_.>])time\s*\()"),
      std::regex(R"((^|[^A-Za-z0-9_.>])clock\s*\()"),
      std::regex(
          R"((^|[^A-Za-z0-9_])(gettimeofday|clock_gettime|localtime(_r)?|gmtime(_r)?|strftime|asctime|ctime)\s*\()"),
      std::regex(R"(__DATE__|__TIME__|__TIMESTAMP__)"),
  };
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    for (const std::regex& pattern : kPatterns) {
      if (std::regex_search(ctx.stripped[i], pattern)) {
        Emit(findings, ctx, i, kNoWallClock,
             "wall-clock source; determinism requires steady_clock or no clock "
             "at all");
        break;
      }
    }
  }
}

/// no-unseeded-rng: every random draw must derive from the experiment
/// seed via SplitSeed so reruns and thread counts cannot diverge.
void CheckNoUnseededRng(const FileContext& ctx, std::vector<Finding>* findings) {
  static const std::regex kAlwaysBad(
      R"(random_device|(^|[^A-Za-z0-9_])(srand|rand|drand48|lrand48|mrand48)\s*\(|default_random_engine)");
  static const std::regex kMt(R"(mt19937(_64)?)");
  static const std::regex kMtSeeded(R"(mt19937(_64)?\b[^;]*([Ss]eed|SplitSeed))");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    const std::string& line = ctx.stripped[i];
    if (std::regex_search(line, kAlwaysBad)) {
      Emit(findings, ctx, i, kNoUnseededRng,
           "ambient randomness source; derive all seeds via SplitSeed from "
           "the experiment seed");
      continue;
    }
    if (std::regex_search(line, kMt) && !std::regex_search(line, kMtSeeded)) {
      Emit(findings, ctx, i, kNoUnseededRng,
           "mt19937 without a visible SplitSeed-derived seed on the "
           "construction line");
    }
  }
}

/// no-unordered-iteration: collect identifiers declared (or returned by
/// file-local functions) with unordered_map/set types, then flag range-for
/// loops whose range expression mentions one of them (or an unordered_
/// type directly).
void CheckNoUnorderedIteration(const FileContext& ctx, std::vector<Finding>* findings) {
  static const std::regex kDecl(
      R"(unordered_(map|set)\s*<.*>\s*[&*]?\s*([A-Za-z_][A-Za-z0-9_]*)\s*[;={(\[])");
  std::set<std::string> unordered_names;
  for (const std::string& line : ctx.stripped) {
    auto begin = std::sregex_iterator(line.begin(), line.end(), kDecl);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
      unordered_names.insert((*it)[2].str());
    }
  }

  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    const std::string& line = ctx.stripped[i];
    size_t for_pos = line.find("for");
    if (for_pos == std::string::npos) continue;
    static const std::regex kRangeFor(R"((^|[^A-Za-z0-9_])for\s*\()");
    std::smatch for_match;
    if (!std::regex_search(line, for_match, kRangeFor)) continue;
    // Find the range-for ':' at paren depth 1 (skipping '::'), stopping at
    // ';' (a classic for) or the matching ')'.
    size_t open = line.find('(', for_match.position(0));
    if (open == std::string::npos) continue;
    int depth = 0;
    size_t colon = std::string::npos;
    size_t close = line.size();
    bool classic = false;
    for (size_t j = open; j < line.size(); ++j) {
      char c = line[j];
      if (c == '(' || c == '[' || c == '{') ++depth;
      if (c == ')' || c == ']' || c == '}') {
        --depth;
        if (depth == 0) {
          close = j;
          break;
        }
      }
      if (depth == 1 && c == ';') {
        classic = true;
        break;
      }
      if (depth == 1 && c == ':' && colon == std::string::npos) {
        if ((j + 1 < line.size() && line[j + 1] == ':') || (j > 0 && line[j - 1] == ':')) {
          continue;  // scope resolution
        }
        colon = j;
      }
    }
    if (classic || colon == std::string::npos) continue;
    std::string range_expr = line.substr(colon + 1, close - colon - 1);
    bool bad = range_expr.find("unordered_") != std::string::npos;
    if (!bad) {
      static const std::regex kIdent(R"([A-Za-z_][A-Za-z0-9_]*)");
      auto begin = std::sregex_iterator(range_expr.begin(), range_expr.end(), kIdent);
      for (auto it = begin; it != std::sregex_iterator(); ++it) {
        if (unordered_names.count(it->str()) > 0) {
          bad = true;
          break;
        }
      }
    }
    if (bad) {
      Emit(findings, ctx, i, kNoUnorderedIteration,
           "range-for over an unordered container: iteration order is "
           "implementation-defined; sort first, or allow() with a rationale "
           "when the order provably cannot escape");
    }
  }
}

/// audit-pairing: a file declaring a mutex member must carry clang
/// thread-safety annotations, so the runtime mutex/audit discipline is
/// always paired with the compile-time analysis.
void CheckAuditPairing(const FileContext& ctx, std::vector<Finding>* findings) {
  static const std::regex kMutexDecl(
      R"((^|\s)(mutable\s+)?(static\s+)?(std::)?[Mm]utex\s+[A-Za-z_][A-Za-z0-9_]*\s*(;|=|\{))");
  static const std::regex kAnnotation(
      R"(CP_(GUARDED_BY|PT_GUARDED_BY|CAPABILITY|SCOPED_CAPABILITY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|TRY_ACQUIRE|RETURN_CAPABILITY)\b)");
  const std::string joined = ctx.Joined();
  const bool has_annotations = std::regex_search(joined, kAnnotation);
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    if (std::regex_search(ctx.stripped[i], kMutexDecl) && !has_annotations) {
      Emit(findings, ctx, i, kAuditPairing,
           "mutex-guarded state without clang thread-safety annotations; "
           "declare a coverpack::Mutex and mark members CP_GUARDED_BY "
           "(util/thread_annotations.h)");
    }
  }
}

/// include-hygiene: headers include what they use from util/.
void CheckIncludeHygiene(const FileContext& ctx, std::vector<Finding>* findings) {
  if (!EndsWith(ctx.path, ".h")) return;
  struct Requirement {
    std::regex use;
    std::string include;
  };
  static const std::vector<Requirement> kRequirements = {
      {std::regex(R"(CP_D?CHECK)"), "util/logging.h"},
      {std::regex(R"(CP_AUDIT)"), "util/audit.h"},
      {std::regex(
           R"(CP_(GUARDED_BY|PT_GUARDED_BY|CAPABILITY|SCOPED_CAPABILITY|REQUIRES|EXCLUDES|ACQUIRE|RELEASE|TRY_ACQUIRE|RETURN_CAPABILITY|NO_THREAD_SAFETY_ANALYSIS)\b)"),
       "util/thread_annotations.h"},
      {std::regex(R"((^|[^A-Za-z0-9_:])(Mutex|MutexLock)\b)"), "util/mutex.h"},
      {std::regex(R"((^|[^A-Za-z0-9_:])(SplitSeed|Rng)\b)"), "util/random.h"},
      {std::regex(R"((^|[^A-Za-z0-9_:])HashCombine\b)"), "util/hash.h"},
      {std::regex(R"((^|[^A-Za-z0-9_:])ThreadPool\b)"), "util/thread_pool.h"},
  };
  for (const Requirement& requirement : kRequirements) {
    if (EndsWith(ctx.path, requirement.include)) continue;  // the definer itself
    const std::string include_directive = "#include \"" + requirement.include + "\"";
    bool included = false;
    for (const std::string& line : ctx.raw) {
      if (line.find(include_directive) != std::string::npos) {
        included = true;
        break;
      }
    }
    if (included) continue;
    for (size_t i = 0; i < ctx.stripped.size(); ++i) {
      if (std::regex_search(ctx.stripped[i], requirement.use)) {
        Emit(findings, ctx, i, kIncludeHygiene,
             "uses a util/ symbol without including \"" + requirement.include +
                 "\" directly (include what you use)");
        break;  // one finding per missing include is enough
      }
    }
  }
}

/// no-per-row-append: Relation::AppendRow in the src/mpc/ and src/query/
/// hot paths. Those layers sit on every experiment's critical path, and the
/// columnar substrate's contract is count-first bulk appends (AppendRows /
/// AppendUninitialized): one growth check and one contiguous copy per
/// operator call instead of one per tuple. A stray per-row append is a
/// quiet O(rows) regression the benchmarks only catch at full size.
void CheckNoPerRowAppend(const FileContext& ctx, std::vector<Finding>* findings) {
  const bool hot_path = ctx.path.find("src/mpc/") != std::string::npos ||
                        ctx.path.find("src/query/") != std::string::npos;
  if (!hot_path) return;
  static const std::regex kPerRowAppend(R"((\.|->)\s*AppendRow\s*\()");
  for (size_t i = 0; i < ctx.stripped.size(); ++i) {
    if (std::regex_search(ctx.stripped[i], kPerRowAppend)) {
      Emit(findings, ctx, i, kNoPerRowAppend,
           "per-row AppendRow on a hot path; count the output first and use "
           "AppendRows/AppendUninitialized for one bulk write");
    }
  }
}

}  // namespace

// ---- Comment/string stripping ----------------------------------------------

std::vector<std::string> StripForAnalysis(const std::string& content) {
  std::vector<std::string> lines;
  std::string current;
  enum class State { kCode, kLineComment, kBlockComment, kString, kChar, kRawString };
  State state = State::kCode;
  std::string raw_delim;  // for R"delim( ... )delim"
  for (size_t i = 0; i < content.size(); ++i) {
    char c = content[i];
    char next = i + 1 < content.size() ? content[i + 1] : '\0';
    if (c == '\n') {
      if (state == State::kLineComment) state = State::kCode;
      // Unterminated ordinary literals do not span lines in valid C++.
      if (state == State::kString || state == State::kChar) state = State::kCode;
      lines.push_back(current);
      current.clear();
      continue;
    }
    switch (state) {
      case State::kCode:
        if (c == '/' && next == '/') {
          state = State::kLineComment;
          ++i;
        } else if (c == '/' && next == '*') {
          state = State::kBlockComment;
          ++i;
          current += ' ';  // keep token separation
        } else if (c == 'R' && next == '"' &&
                   (i == 0 || (!std::isalnum(static_cast<unsigned char>(content[i - 1])) &&
                               content[i - 1] != '_'))) {
          // Raw string literal: find the delimiter up to '('.
          size_t paren = content.find('(', i + 2);
          if (paren != std::string::npos) {
            raw_delim = ")" + content.substr(i + 2, paren - (i + 2)) + "\"";
            state = State::kRawString;
            current += "\"\"";
            i = paren;  // skip past the opening '('
          } else {
            current += c;
          }
        } else if (c == '"') {
          state = State::kString;
          current += '"';
        } else if (c == '\'') {
          state = State::kChar;
          current += '\'';
        } else {
          current += c;
        }
        break;
      case State::kLineComment:
        break;  // drop
      case State::kBlockComment:
        if (c == '*' && next == '/') {
          state = State::kCode;
          ++i;
        }
        break;
      case State::kString:
        if (c == '\\') {
          ++i;  // skip escaped char (stays within the literal)
        } else if (c == '"') {
          state = State::kCode;
          current += '"';
        }
        break;
      case State::kChar:
        if (c == '\\') {
          ++i;
        } else if (c == '\'') {
          state = State::kCode;
          current += '\'';
        }
        break;
      case State::kRawString:
        if (content.compare(i, raw_delim.size(), raw_delim) == 0) {
          i += raw_delim.size() - 1;
          state = State::kCode;
        }
        break;
    }
  }
  if (!current.empty() || state != State::kCode) lines.push_back(current);
  return lines;
}

// ---- Public API ------------------------------------------------------------

const std::vector<RuleInfo>& Rules() {
  static const std::vector<RuleInfo> kRules = {
      {kChargeChokePoint,
       "LoadTracker charging (*tracker*.Add) only in src/mpc/exchange.cc"},
      {kNoWallClock,
       "no wall-clock sources (system_clock, time(), __DATE__/__TIME__); "
       "steady_clock only"},
      {kNoUnseededRng,
       "no ambient RNG (random_device, rand(), unseeded mt19937); seeds derive via "
       "SplitSeed"},
      {kNoUnorderedIteration,
       "no range-for over unordered containers (implementation-defined order)"},
      {kAuditPairing,
       "mutex-declaring files carry clang thread-safety annotations"},
      {kIncludeHygiene, "headers include what they use from util/"},
      {kNoPerRowAppend,
       "no per-row Relation::AppendRow in the src/mpc/ and src/query/ hot paths; "
       "bulk AppendRows/AppendUninitialized only"},
  };
  return kRules;
}

bool IsRule(const std::string& name) {
  for (const RuleInfo& rule : Rules()) {
    if (rule.name == name) return true;
  }
  return false;
}

std::vector<Finding> LintContent(const std::string& path, const std::string& content,
                                 const std::vector<std::string>& rules) {
  const FileContext ctx = MakeContext(path, content);
  auto enabled = [&rules](const char* rule) {
    return rules.empty() || std::find(rules.begin(), rules.end(), rule) != rules.end();
  };
  std::vector<Finding> findings;
  if (enabled(kChargeChokePoint)) CheckChargeChokePoint(ctx, &findings);
  if (enabled(kNoWallClock)) CheckNoWallClock(ctx, &findings);
  if (enabled(kNoUnseededRng)) CheckNoUnseededRng(ctx, &findings);
  if (enabled(kNoUnorderedIteration)) CheckNoUnorderedIteration(ctx, &findings);
  if (enabled(kAuditPairing)) CheckAuditPairing(ctx, &findings);
  if (enabled(kIncludeHygiene)) CheckIncludeHygiene(ctx, &findings);
  if (enabled(kNoPerRowAppend)) CheckNoPerRowAppend(ctx, &findings);
  std::sort(findings.begin(), findings.end(), [](const Finding& a, const Finding& b) {
    if (a.line != b.line) return a.line < b.line;
    return a.rule < b.rule;
  });
  return findings;
}

std::vector<Finding> LintFile(const std::string& path, const std::vector<std::string>& rules) {
  std::ifstream stream(path, std::ios::binary);
  if (!stream) {
    return {Finding{path, 0, "io-error", "cannot read file"}};
  }
  std::ostringstream buffer;
  buffer << stream.rdbuf();
  return LintContent(path, buffer.str(), rules);
}

std::vector<std::string> CollectSources(const std::string& path) {
  namespace fs = std::filesystem;
  std::vector<std::string> sources;
  std::error_code ec;
  if (fs::is_directory(path, ec)) {
    for (fs::recursive_directory_iterator it(path, ec), end; it != end && !ec;
         it.increment(ec)) {
      if (!it->is_regular_file(ec)) continue;
      const std::string file = it->path().generic_string();
      if (EndsWith(file, ".h") || EndsWith(file, ".cc")) sources.push_back(file);
    }
  } else if (fs::is_regular_file(path, ec)) {
    if (EndsWith(path, ".h") || EndsWith(path, ".cc")) sources.push_back(path);
  }
  std::sort(sources.begin(), sources.end());
  return sources;
}

}  // namespace cplint
}  // namespace coverpack

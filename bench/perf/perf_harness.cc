#include "perf_harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <utility>

#include "util/hash.h"

namespace coverpack {
namespace perf {

double MsBetween(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - start).count();
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->Close();
}

Tracer::Scope Tracer::Open(const std::string& name, uint64_t op) {
  if (!enabled_) return Scope(nullptr);
  Span span;
  span.name = name;
  span.op = op;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  span.start_ms = MsBetween(origin_, Clock::now());
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
  return Scope(this);
}

void Tracer::Close() {
  spans_[open_.back()].end_ms = MsBetween(origin_, Clock::now());
  open_.pop_back();
}

std::map<std::string, double> Tracer::MedianSelfMs() const {
  std::vector<double> self(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) self[i] = spans_[i].end_ms - spans_[i].start_ms;
  for (const Span& span : spans_) {
    if (span.parent >= 0) self[span.parent] -= span.end_ms - span.start_ms;
  }
  std::map<std::string, std::map<uint64_t, double>> per_op;
  for (size_t i = 0; i < spans_.size(); ++i) per_op[spans_[i].name][spans_[i].op] += self[i];
  std::map<std::string, double> medians;
  for (const auto& [name, by_op] : per_op) {
    std::vector<double> values;
    for (const auto& [op, ms] : by_op) values.push_back(ms);
    medians[name] = Median(std::move(values));
  }
  return medians;
}

telemetry::JsonValue Tracer::ToJson() const {
  telemetry::JsonValue list = telemetry::JsonValue::Array();
  for (const Span& span : spans_) {
    telemetry::JsonValue entry = telemetry::JsonValue::Object();
    entry.Set("name", span.name);
    entry.Set("op", span.op);
    entry.Set("parent", span.parent);
    entry.Set("start_ms", span.start_ms);
    entry.Set("end_ms", span.end_ms);
    list.Append(std::move(entry));
  }
  telemetry::JsonValue doc = telemetry::JsonValue::Object();
  doc.Set("spans", std::move(list));
  return doc;
}

double Median(std::vector<double> values) { return Percentile(std::move(values), 0.5); }

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double position = q * static_cast<double>(values.size() - 1);
  const size_t lower = static_cast<size_t>(position);
  if (lower + 1 >= values.size()) return values.back();
  const double fraction = position - static_cast<double>(lower);
  return values[lower] + fraction * (values[lower + 1] - values[lower]);
}

uint64_t ValueFactor(AttrId attr, Value value) {
  return MixHash(HashCombine(uint64_t{attr} + 1, value)) | 1;
}

uint64_t RowDigest(const Relation& relation) {
  const std::vector<AttrId> attrs = relation.attrs().ToVector();
  uint64_t digest = 0;
  for (size_t i = 0; i < relation.size(); ++i) {
    const std::span<const Value> row = relation.row(i);
    uint64_t product = 1;
    for (size_t c = 0; c < attrs.size(); ++c) product *= ValueFactor(attrs[c], row[c]);
    digest += product;
  }
  return digest;
}

std::string Hex(uint64_t value) {
  char buffer[17];
  std::snprintf(buffer, sizeof(buffer), "%016llx", static_cast<unsigned long long>(value));
  return buffer;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

namespace {

/// Reader for the subset of JSON that PinTable::Write emits: objects,
/// strings without escapes other than \" and \\, and unsigned integers.
class PinReader {
 public:
  explicit PinReader(std::string text) : text_(std::move(text)) {}

  bool ReadTable(PinTable* table) {
    bool ok = Expect('{');
    while (ok && !Peek('}')) {
      std::string key;
      ok = ReadString(&key) && Expect(':');
      if (!ok) break;
      if (key == "seed") {
        ok = ReadUint(&table->seed);
      } else if (key == "workloads") {
        ok = ReadWorkloads(table);
      } else {
        ok = false;
      }
      if (ok && !Peek('}')) ok = Expect(',');
    }
    return ok && Expect('}');
  }

 private:
  bool ReadWorkloads(PinTable* table) {
    bool ok = Expect('{');
    while (ok && !Peek('}')) {
      std::string workload;
      ok = ReadString(&workload) && Expect(':') && Expect('{');
      while (ok && !Peek('}')) {
        std::string op;
        std::string value;
        ok = ReadString(&op) && Expect(':') && ReadString(&value);
        table->workloads[workload][op] = value;
        if (ok && !Peek('}')) ok = Expect(',');
      }
      ok = ok && Expect('}');
      if (ok && !Peek('}')) ok = Expect(',');
    }
    return ok && Expect('}');
  }

  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool Peek(char c) {
    SkipSpace();
    return pos_ < text_.size() && text_[pos_] == c;
  }

  bool Expect(char c) {
    if (!Peek(c)) return false;
    ++pos_;
    return true;
  }

  bool ReadString(std::string* out) {
    if (!Expect('"')) return false;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      if (text_[pos_] == '\\' && pos_ + 1 < text_.size()) ++pos_;
      out->push_back(text_[pos_++]);
    }
    return Expect('"');
  }

  bool ReadUint(uint64_t* out) {
    SkipSpace();
    const size_t start = pos_;
    *out = 0;
    while (pos_ < text_.size() && std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
      *out = *out * 10 + static_cast<uint64_t>(text_[pos_++] - '0');
    }
    return pos_ > start;
  }

  std::string text_;
  size_t pos_ = 0;
};

}  // namespace

std::optional<PinTable> PinTable::Read(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream text;
  text << in.rdbuf();
  PinTable table;
  if (!PinReader(text.str()).ReadTable(&table)) return std::nullopt;
  return table;
}

bool PinTable::Write(const std::string& path) const {
  telemetry::JsonValue by_workload = telemetry::JsonValue::Object();
  for (const auto& [workload, ops] : workloads) {
    telemetry::JsonValue pins = telemetry::JsonValue::Object();
    for (const auto& [op, value] : ops) pins.Set(op, value);
    by_workload.Set(workload, std::move(pins));
  }
  telemetry::JsonValue doc = telemetry::JsonValue::Object();
  doc.Set("seed", seed);
  doc.Set("workloads", std::move(by_workload));
  std::ofstream out(path);
  if (!out) return false;
  doc.Write(out);
  out << "\n";
  return static_cast<bool>(out);
}

}  // namespace perf
}  // namespace coverpack

#include "query/parser.h"

#include <cctype>
#include <set>
#include <utility>
#include <vector>

#include "util/logging.h"

namespace coverpack {

namespace {

/// Single-pass recursive-descent scanner over the query text. A method that
/// does not find what it needs records an error and returns false.
class Scanner {
 public:
  explicit Scanner(const std::string& text) : text_(text) {}

  bool AtEnd() {
    SkipSpace();
    return pos_ >= text_.size();
  }

  /// Consumes `c` if it comes next.
  bool Accept(char c) {
    if (AtEnd() || text_[pos_] != c) return false;
    ++pos_;
    return true;
  }

  bool Expect(char c) { return Accept(c) || Fail(std::string("expected '") + c + "'"); }

  bool Name(std::string* name) {
    SkipSpace();
    const size_t start = pos_;
    while (pos_ < text_.size() &&
           (std::isalnum(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '_')) {
      ++pos_;
    }
    if (pos_ == start) return Fail("expected a name");
    *name = text_.substr(start, pos_ - start);
    return true;
  }

  const std::string& error() const { return error_; }

 private:
  void SkipSpace() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  bool Fail(const std::string& what) {
    error_ = what + " at position " + std::to_string(pos_) + " in \"" + text_ + "\"";
    return false;
  }

  const std::string& text_;
  size_t pos_ = 0;
  std::string error_;
};

}  // namespace

std::optional<Hypergraph> ParseQuery(const std::string& text, std::string* error) {
  const auto fail = [error](std::string message) -> std::optional<Hypergraph> {
    *error = std::move(message);
    return std::nullopt;
  };
  Scanner scanner(text);
  std::vector<std::pair<std::string, std::vector<std::string>>> relations;
  while (!scanner.AtEnd()) {
    if (!relations.empty() && !scanner.Expect(',')) return fail(scanner.error());
    std::string name;
    std::vector<std::string> attrs(1);
    if (!scanner.Name(&name) || !scanner.Expect('(') || !scanner.Name(&attrs[0])) {
      return fail(scanner.error());
    }
    while (scanner.Accept(',')) {
      if (!scanner.Name(&attrs.emplace_back())) return fail(scanner.error());
    }
    if (!scanner.Expect(')')) return fail(scanner.error());
    relations.emplace_back(std::move(name), std::move(attrs));
  }

  // What Hypergraph::Builder would abort on.
  if (relations.empty()) return fail("empty query");
  if (relations.size() > 64) return fail("at most 64 relations supported");
  std::set<std::string> relation_names;
  std::set<std::string> attr_names;
  for (const auto& [name, attrs] : relations) {
    if (!relation_names.insert(name).second) return fail("duplicate relation name " + name);
    attr_names.insert(attrs.begin(), attrs.end());
  }
  if (attr_names.size() > 64) return fail("at most 64 attributes supported");

  Hypergraph::Builder builder;
  for (const auto& [name, attrs] : relations) builder.AddRelation(name, attrs);
  return builder.Build();
}

Hypergraph ParseQuery(const std::string& text) {
  std::string error;
  std::optional<Hypergraph> query = ParseQuery(text, &error);
  CP_CHECK(query.has_value()) << error;
  return *std::move(query);
}

}  // namespace coverpack

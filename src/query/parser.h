/// \file parser.h
/// \brief Tiny textual DSL for join queries.
///
/// Grammar:  query    := relation ("," relation)*
///           relation := NAME "(" NAME ("," NAME)* ")"
/// e.g. "R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)" is the box join.
/// Whitespace is insignificant. Names are [A-Za-z0-9_]+.

#ifndef COVERPACK_QUERY_PARSER_H_
#define COVERPACK_QUERY_PARSER_H_

#include <optional>
#include <string>

#include "query/hypergraph.h"

namespace coverpack {

/// Parses the DSL. On malformed input — a syntax error, no relation, a
/// relation name used twice, or more than 64 attributes or relations —
/// returns nullopt and stores a message naming the problem in `*error`.
std::optional<Hypergraph> ParseQuery(const std::string& text, std::string* error);

/// Parses a compiled-in query; aborts with the message above on malformed
/// input, which is a bug in the caller.
Hypergraph ParseQuery(const std::string& text);

}  // namespace coverpack

#endif  // COVERPACK_QUERY_PARSER_H_

#include "query/catalog.h"

#include "query/parser.h"
#include "util/logging.h"

namespace coverpack {
namespace catalog {

namespace {

std::string Var(uint32_t i) { return "X" + std::to_string(i); }

}  // namespace

Hypergraph Path(uint32_t k) {
  CP_CHECK_GE(k, 1u);
  Hypergraph::Builder builder;
  for (uint32_t i = 1; i <= k; ++i) {
    builder.AddRelation("R" + std::to_string(i), {Var(i - 1), Var(i)});
  }
  return builder.Build();
}

Hypergraph Star(uint32_t k) {
  CP_CHECK_GE(k, 1u);
  Hypergraph::Builder builder;
  for (uint32_t i = 1; i <= k; ++i) {
    builder.AddRelation("R" + std::to_string(i), {Var(0), Var(i)});
  }
  return builder.Build();
}

Hypergraph StarDual(uint32_t k) {
  CP_CHECK_GE(k, 1u);
  Hypergraph::Builder builder;
  std::vector<std::string> center;
  for (uint32_t i = 1; i <= k; ++i) center.push_back(Var(i));
  builder.AddRelation("R0", center);
  for (uint32_t i = 1; i <= k; ++i) {
    builder.AddRelation("R" + std::to_string(i), {Var(i)});
  }
  return builder.Build();
}

Hypergraph Cycle(uint32_t k) {
  CP_CHECK_GE(k, 3u);
  Hypergraph::Builder builder;
  for (uint32_t i = 1; i <= k; ++i) {
    builder.AddRelation("R" + std::to_string(i), {Var(i - 1), Var(i % k)});
  }
  return builder.Build();
}

Hypergraph LoomisWhitney(uint32_t n) {
  CP_CHECK_GE(n, 3u);
  Hypergraph::Builder builder;
  for (uint32_t omit = 0; omit < n; ++omit) {
    std::vector<std::string> attrs;
    for (uint32_t i = 0; i < n; ++i) {
      if (i != omit) attrs.push_back(Var(i));
    }
    builder.AddRelation("R" + std::to_string(omit + 1), attrs);
  }
  return builder.Build();
}

Hypergraph Clique(uint32_t k) {
  CP_CHECK_GE(k, 2u);
  Hypergraph::Builder builder;
  uint32_t id = 1;
  for (uint32_t i = 0; i < k; ++i) {
    for (uint32_t j = i + 1; j < k; ++j) {
      builder.AddRelation("R" + std::to_string(id++), {Var(i), Var(j)});
    }
  }
  return builder.Build();
}

Hypergraph Triangle() { return ParseQuery("R1(A,B), R2(B,C), R3(C,A)"); }

Hypergraph BoxJoin() {
  return ParseQuery("R1(A,B,C), R2(D,E,F), R3(A,D), R4(B,E), R5(C,F)");
}

Hypergraph Figure4Query() {
  return ParseQuery(
      "e0(A,B,C,H), e1(A,B,D), e2(B,C,E), e3(A,C,F), e4(A,B,H,J), "
      "e5(A,H,I), e6(A,I,K), e7(A,I,G)");
}

Hypergraph SemiJoinExample() { return ParseQuery("R1(A), R2(A,B), R3(B)"); }

Hypergraph Line3() { return ParseQuery("R1(A,B), R2(B,C), R3(C,D)"); }

Hypergraph AlphaNotBerge() {
  return ParseQuery("R0(A,B,C), R1(A,B,D), R2(B,C,E), R3(A,C,F)");
}

Hypergraph PackingProvableSixEdges() {
  // Two ternary hubs R1(A,B,C), R2(D,E,F) fully matched by three binary
  // bridges (a 6-cycle in the bipartite incidence structure), like Q_box but
  // with the bridges rotated; every vertex has degree two and all cycles in
  // the incidence graph are even.
  return ParseQuery("R1(A,B,C), R2(D,E,F), R3(A,E), R4(B,F), R5(C,D)");
}

std::vector<NamedQuery> StandardRoster() {
  std::vector<NamedQuery> roster;
  roster.push_back({"semijoin(R1(A),R2(A,B),R3(B))", SemiJoinExample()});
  roster.push_back({"line3", Line3()});
  roster.push_back({"path4", Path(4)});
  roster.push_back({"path5", Path(5)});
  roster.push_back({"star4", Star(4)});
  roster.push_back({"star_dual3", StarDual(3)});
  roster.push_back({"star_dual4", StarDual(4)});
  roster.push_back({"figure4", Figure4Query()});
  roster.push_back({"alpha_not_berge", AlphaNotBerge()});
  roster.push_back({"triangle", Triangle()});
  roster.push_back({"cycle4", Cycle(4)});
  roster.push_back({"cycle5", Cycle(5)});
  roster.push_back({"cycle6", Cycle(6)});
  roster.push_back({"LW3", LoomisWhitney(3)});
  roster.push_back({"LW4", LoomisWhitney(4)});
  roster.push_back({"box_join", BoxJoin()});
  roster.push_back({"packing_provable6", PackingProvableSixEdges()});
  roster.push_back({"clique4", Clique(4)});
  return roster;
}

}  // namespace catalog
}  // namespace coverpack

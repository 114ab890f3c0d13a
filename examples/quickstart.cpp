// Quickstart: align two tiny in-memory ontologies with PARIS.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart
//
// One ontology is built programmatically, the other is parsed from an
// N-Triples document — the two loading paths the library offers. PARIS then
// discovers that the instances, the relations (one of them inverted!) and
// the classes line up, with zero configuration.
#include <cstdio>

#include "paris/paris.h"

int main() {
  paris::rdf::TermPool pool;  // shared between the two ontologies

  // --- Left ontology: built programmatically --------------------------
  paris::ontology::OntologyBuilder left_builder(&pool, "left");
  left_builder.AddType("l:elvis", "l:Singer");
  left_builder.AddSubClassOf("l:Singer", "l:Person");
  left_builder.AddLiteralFact("l:elvis", "l:name", "Elvis Presley");
  left_builder.AddLiteralFact("l:elvis", "l:born", "1935-01-08");
  left_builder.AddFact("l:elvis", "l:bornIn", "l:tupelo");
  left_builder.AddLiteralFact("l:tupelo", "l:label", "Tupelo");
  left_builder.AddType("l:priscilla", "l:Person");
  left_builder.AddLiteralFact("l:priscilla", "l:name", "Priscilla Presley");
  left_builder.AddFact("l:elvis", "l:marriedTo", "l:priscilla");
  auto left = left_builder.Build();
  if (!left.ok()) {
    std::printf("left build failed: %s\n", left.status().ToString().c_str());
    return 1;
  }

  // --- Right ontology: parsed from N-Triples --------------------------
  const char* document = R"(
<r:presley_e> <rdf:type> <r:Artist> .
<r:presley_e> <r:fullName> "Elvis Presley" .
<r:presley_e> <r:birthDate> "1935-01-08" .
# Note the inverted relation: birthPlaceOf(place, person).
<r:tupelo_ms> <r:birthPlaceOf> <r:presley_e> .
<r:tupelo_ms> <rdfs:label> "Tupelo" .
<r:presley_p> <rdf:type> <r:Artist> .
<r:presley_p> <r:fullName> "Priscilla Presley" .
<r:presley_e> <r:spouse> <r:presley_p> .
)";
  auto right = paris::ontology::LoadOntologyFromNTriples(&pool, "right",
                                                         document);
  if (!right.ok()) {
    std::printf("right parse failed: %s\n",
                right.status().ToString().c_str());
    return 1;
  }

  // --- Align ------------------------------------------------------------
  paris::core::Aligner aligner(*left, *right);
  paris::core::AlignmentResult result = aligner.Run();

  std::printf("\nInstance equivalences (maximal assignment):\n");
  result.instances.ForEachMaxOfLeft([&](auto l, const auto& candidate) {
    std::printf("  %-14s ≡ %-14s  (Pr = %.3f)\n", left->TermName(l).c_str(),
                right->TermName(candidate.other).c_str(), candidate.prob);
  });

  std::printf("\nSub-relation alignments (score ≥ 0.3):\n");
  for (const auto& e : result.relations.Entries()) {
    if (e.score < 0.3) continue;
    const auto& sub_onto = e.sub_is_left ? *left : *right;
    const auto& super_onto = e.sub_is_left ? *right : *left;
    std::printf("  %-18s ⊆ %-18s  (%.2f)\n",
                sub_onto.RelationName(e.sub).c_str(),
                super_onto.RelationName(e.super).c_str(), e.score);
  }

  std::printf("\nSub-class alignments:\n");
  for (const auto& e : result.classes.entries()) {
    const auto& sub_onto = e.sub_is_left ? *left : *right;
    const auto& super_onto = e.sub_is_left ? *right : *left;
    std::printf("  %-14s ⊆ %-14s  (%.2f)\n",
                sub_onto.TermName(e.sub).c_str(),
                super_onto.TermName(e.super).c_str(), e.score);
  }

  std::printf("\nConverged after %d iteration(s).\n", result.converged_at);
  return 0;
}

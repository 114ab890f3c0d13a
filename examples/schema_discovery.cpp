// Schema discovery: explore two independently designed ontologies with the
// triple-pattern query engine, then let PARIS's holistic alignment discover
// the schema mapping between them — sub-relations (including inverted ones)
// and sub-classes across class hierarchies of different granularity. This
// is the YAGO ↔ DBpedia scenario of §6.4, driven entirely through the
// `paris::api::Session` facade:
//
//   generate -> load -> Query (pattern scans, intersection) -> align -> report
//
// Build & run (in-tree):
//   cmake -B build -DPARIS_BUILD_EXAMPLES=ON && cmake --build build
//   ./build/example_schema_discovery [scale]
//
// Also buildable out-of-tree against an installed paris — see
// examples/find_package_smoke.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <vector>

#include "paris/paris.h"

namespace {

bool Check(const paris::util::Status& status, const char* what) {
  if (status.ok()) return true;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  return false;
}

// Resolves a relation by lexical name; kNullRel when the side lacks it.
paris::rdf::RelId FindRel(const paris::ontology::Ontology& onto,
                          const std::string& name) {
  const auto id = onto.pool().Find(name, paris::rdf::TermKind::kIri);
  if (!id.has_value()) return paris::rdf::kNullRel;
  return onto.store().FindRelation(*id).value_or(paris::rdf::kNullRel);
}

// Prints one side's relation inventory straight off the pattern engine:
// one (_, ?, _) pattern for the distinct relations, sorted, and one Count
// per relation, which is the size of its pair span.
void PrintSchema(const char* label, const paris::ontology::Ontology& onto) {
  const paris::rdf::TripleStore& store = onto.store();
  const std::vector<paris::rdf::Triple> rels = store.Collect(
      paris::storage::TriplePattern().IgnoreSubject().IgnoreObject());
  std::printf("%s: %zu classes, %zu relations\n", label,
              onto.classes().size(), rels.size());
  for (const paris::rdf::Triple& row : rels) {
    std::printf("  %-22s %6llu facts\n", onto.RelationName(row.rel).c_str(),
                static_cast<unsigned long long>(store.Count(
                    paris::storage::TriplePattern().BindRel(row.rel))));
  }
}

// The distinct objects of one relation, ascending: a (_, r, ?) pattern
// replies sorted by object.
std::vector<paris::rdf::TermId> DistinctObjects(
    const paris::ontology::Ontology& onto, paris::rdf::RelId rel) {
  std::vector<paris::rdf::TermId> objects;
  for (const paris::rdf::Triple& row : onto.store().Collect(
           paris::storage::TriplePattern().IgnoreSubject().BindRel(rel))) {
    objects.push_back(row.object);
  }
  return objects;
}

}  // namespace

int main(int argc, char** argv) {
  paris::util::SetLogLevel(paris::util::LogLevel::kWarning);

  // --- Generate the YAGO ↔ DBpedia benchmark pair -----------------------
  paris::api::DatasetSpec spec;
  spec.profile = "yago-dbpedia";
  spec.output_prefix = "/tmp/paris_schema_discovery";
  spec.scale = argc > 1 ? std::atof(argv[1]) : 0.5;
  auto dataset = paris::api::GenerateDataset(spec);
  if (!Check(dataset.status(), "GenerateDataset")) return 1;

  paris::api::Session session(
      paris::api::Session::Options().set_threads(2));
  if (!Check(session.LoadFromFiles(dataset->left_path, dataset->right_path),
             "LoadFromFiles")) {
    return 1;
  }
  const paris::ontology::Ontology& left = session.left();
  const paris::ontology::Ontology& right = session.right();

  // --- Explore the schemas with pattern queries (pre-alignment) ---------
  PrintSchema("\nleft schema", left);
  PrintSchema("\nright schema", right);

  // A bound-relation pattern reads that relation's pairs; sample a few
  // y:wasBornIn statements through the facade.
  const paris::rdf::RelId born_in = FindRel(left, "y:wasBornIn");
  if (born_in != paris::rdf::kNullRel) {
    auto sample = session.Query(
        paris::api::Session::DeltaSide::kLeft,
        paris::storage::TriplePattern().BindRel(born_in), /*limit=*/3);
    if (!Check(sample.status(), "Query")) return 1;
    std::printf("\nsample y:wasBornIn statements:\n");
    for (const paris::rdf::Triple& t : *sample) {
      std::printf("  %s -> %s\n", left.TermName(t.subject).c_str(),
                  left.TermName(t.object).c_str());
    }
  }

  // Both ontologies intern into one shared term pool, so intersecting the
  // objects of two single-relation patterns yields the literal values
  // present on both sides — the classic candidate-seed query, answered by
  // two sorted scans and one std::set_intersection.
  const paris::rdf::RelId left_label = FindRel(left, "rdfs:label");
  const paris::rdf::RelId right_name = FindRel(right, "dbp:birthName");
  if (left_label != paris::rdf::kNullRel &&
      right_name != paris::rdf::kNullRel) {
    const std::vector<paris::rdf::TermId> labels =
        DistinctObjects(left, left_label);
    const std::vector<paris::rdf::TermId> names =
        DistinctObjects(right, right_name);
    std::vector<paris::rdf::TermId> shared;
    std::set_intersection(labels.begin(), labels.end(), names.begin(),
                          names.end(), std::back_inserter(shared));
    std::printf(
        "\n%zu literal values appear as both rdfs:label and dbp:birthName\n",
        shared.size());
  }

  // --- Align and report the discovered schema mapping -------------------
  if (!Check(session.Align(), "Align")) return 1;
  const paris::core::AlignmentResult& result = session.result();

  std::printf("\nDiscovered relation mapping (left → right):\n");
  std::vector<paris::core::RelationAlignmentEntry> entries =
      result.relations.Entries();
  std::sort(entries.begin(), entries.end(),
            [](const auto& a, const auto& b) { return a.score > b.score; });
  std::vector<bool> seen(left.num_relations() + 1, false);
  for (const auto& e : entries) {
    if (!e.sub_is_left) continue;
    const paris::rdf::RelId base = paris::rdf::BaseRel(e.sub);
    if (seen[static_cast<size_t>(base)]) continue;
    seen[static_cast<size_t>(base)] = true;
    // Report with a positive sub id for readability.
    const auto super = paris::rdf::IsInverse(e.sub)
                           ? paris::rdf::Inverse(e.super)
                           : e.super;
    std::printf("  %-22s ⊆ %-24s  (%.2f)\n", left.RelationName(base).c_str(),
                right.RelationName(super).c_str(), e.score);
  }

  std::printf("\nSample class mapping (right → left, score ≥ 0.5):\n");
  int shown = 0;
  for (const auto& e : result.classes.AboveThreshold(0.5, false)) {
    if (shown++ >= 12) break;
    std::printf("  %-22s ⊆ %-28s  (%.2f)\n", right.TermName(e.sub).c_str(),
                left.TermName(e.super).c_str(), e.score);
  }

  const paris::api::RunSummary summary = session.summary();
  std::printf("\naligned %zu instances in %zu iterations (%.1fs)\n",
              summary.instances_aligned, summary.iterations, summary.seconds);
  return 0;
}

// paris_query — triple-pattern queries against an ontology pair.
//
//   paris_query LEFT.nt RIGHT.ttl SIDE S P O [options]
//   paris_query --snapshot PAIR.snap SIDE S P O [options]
//
// SIDE is `left` or `right`. Each of S / P / O is one of (the token syntax
// of api::Session::ParsePattern):
//   ?        a variable (match anything, report the binding)
//   _        ignored (match anything, collapse duplicates)
//   #<id>    a raw term or relation id
//   <name>   a lexical IRI (the relation may be prefixed `-` for the
//            inverse direction)
//
// Every pattern is answered from the side's columnar index
// (rdf::TripleStore::Scan). Matches print as subject<TAB>relation<TAB>object
// lines, `_` for ignored positions, in the reply order of the pattern's
// mask (src/paris/storage/README.md); a pattern with an ignored position
// prints its distinct rows sorted by (subject, relation, object).
//
// Exit status 0 on success (including zero matches), 1 on usage, load, or
// resolution errors.
#include <cstdio>
#include <string>
#include <vector>

#include "paris/paris.h"
#include "paris/util/flags.h"

namespace {

int Fail(const paris::util::Status& status) {
  std::fprintf(stderr, "paris_query: %s\n", status.ToString().c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot;
  size_t limit = 0;
  bool count_only = false;

  paris::util::FlagParser parser(
      "paris_query", "LEFT RIGHT left|right S P O  (or --snapshot PAIR ...)");
  parser.AddString("--snapshot", &snapshot,
                   "load the pair from a binary snapshot instead of RDF files",
                   "PATH");
  parser.AddSizeT("--limit", &limit, "stop after N matches (0 = no limit)");
  parser.AddBool("--count", &count_only,
                 "print only the number of matches");

  std::vector<std::string> args;
  auto status = parser.Parse(argc, argv, &args);
  if (!status.ok()) {
    std::fprintf(stderr, "paris_query: %s\n%s\n", status.ToString().c_str(),
                 parser.Usage().c_str());
    return 1;
  }
  if (parser.help_requested()) {
    std::printf("%s", parser.Help().c_str());
    return 0;
  }
  const size_t expected = snapshot.empty() ? 6 : 4;
  if (args.size() != expected) {
    std::fprintf(stderr, "paris_query: expected %zu positional arguments\n%s\n",
                 expected, parser.Usage().c_str());
    return 1;
  }

  paris::api::Session session;
  status = snapshot.empty()
               ? session.LoadFromFiles(args[0], args[1])
               : session.LoadFromSnapshot(snapshot);
  if (!status.ok()) return Fail(status);

  const size_t base = snapshot.empty() ? 2 : 0;
  const std::string& side_name = args[base];
  if (side_name != "left" && side_name != "right") {
    return Fail(paris::util::InvalidArgumentError(
        "SIDE must be left or right, got '" + side_name + "'"));
  }
  const bool side_is_left = side_name == "left";
  const auto side = side_is_left ? paris::api::Session::DeltaSide::kLeft
                                 : paris::api::Session::DeltaSide::kRight;
  const paris::ontology::Ontology& onto =
      side_is_left ? session.left() : session.right();

  const auto pattern = session.ParsePattern(side, args[base + 1],
                                            args[base + 2], args[base + 3]);
  if (!pattern.ok()) return Fail(pattern.status());

  if (count_only) {
    std::printf("%llu\n", static_cast<unsigned long long>(
                              onto.store().Count(*pattern)));
    return 0;
  }
  auto matches = session.Query(side, *pattern, limit);
  if (!matches.ok()) return Fail(matches.status());
  for (const paris::rdf::Triple& t : *matches) {
    std::printf(
        "%s\t%s\t%s\n",
        t.subject == paris::rdf::kNullTerm ? "_" : onto.TermName(t.subject).c_str(),
        t.rel == paris::rdf::kNullRel ? "_" : onto.RelationName(t.rel).c_str(),
        t.object == paris::rdf::kNullTerm ? "_" : onto.TermName(t.object).c_str());
  }
  return 0;
}

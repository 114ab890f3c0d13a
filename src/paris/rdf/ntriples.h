#ifndef PARIS_RDF_NTRIPLES_H_
#define PARIS_RDF_NTRIPLES_H_

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "paris/util/status.h"

namespace paris::rdf {

// One parsed N-Triples statement, with IRIs and literal lexical forms
// unescaped. Datatype and language tags are preserved but PARIS ignores them
// (the paper normalizes literals by dropping datatype/dimension info, §5.3).
struct ParsedTriple {
  std::string subject;    // IRI
  std::string predicate;  // IRI
  std::string object;     // IRI or literal lexical form
  bool object_is_literal = false;
  std::string datatype;  // IRI of ^^<datatype>, or empty
  std::string language;  // @lang tag, or empty

  friend bool operator==(const ParsedTriple&, const ParsedTriple&) = default;
};

// Receives statements from the parser. Implemented by `OntologyBuilder` and
// by the convenience vector sink below.
class TripleSink {
 public:
  virtual ~TripleSink() = default;
  // `triple` is valid only for the duration of the call: the parser reuses
  // it for the next statement, so a sink copies (or interns) what it keeps.
  virtual void OnTriple(const ParsedTriple& triple) = 0;
};

// Collects parsed triples into a vector (testing / small inputs).
class VectorTripleSink : public TripleSink {
 public:
  void OnTriple(const ParsedTriple& triple) override {
    triples_.push_back(triple);
  }
  const std::vector<ParsedTriple>& triples() const { return triples_; }

 private:
  std::vector<ParsedTriple> triples_;
};

// A line-oriented N-Triples parser (W3C N-Triples subset: IRIs, plain /
// typed / language-tagged literals, comments, blank lines). Blank nodes are
// rejected — the paper's data model has no anonymous resources.
class NTriplesParser {
 public:
  // Parses an entire document; stops at the first malformed line, returning
  // an error that names the 1-based line number.
  static util::Status ParseDocument(std::string_view text, TripleSink* sink);

  // Parses a single line into `*out`, whose six fields are reset first, so
  // one triple can be reused across lines. Returns OK and sets
  // `*is_triple=false` for blank / comment-only lines.
  static util::Status ParseLine(std::string_view line, ParsedTriple* out,
                                bool* is_triple);

  // Reads a file from disk (util::ReadFile: a directory is rejected) and
  // parses it.
  static util::Status ParseFile(const std::string& path, TripleSink* sink);
};

// Serializes statements back to N-Triples, escaping literals.
class NTriplesWriter {
 public:
  static std::string FormatTriple(const ParsedTriple& triple);
  static void WriteTriples(const std::vector<ParsedTriple>& triples,
                           std::ostream& out);
};

// Escapes a literal lexical form per N-Triples rules (\" \\ \n \r \t).
std::string EscapeLiteral(std::string_view s);

}  // namespace paris::rdf

#endif  // PARIS_RDF_NTRIPLES_H_

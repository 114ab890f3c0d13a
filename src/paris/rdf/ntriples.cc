#include "paris/rdf/ntriples.h"

#include <cctype>
#include <ostream>
#include <sstream>

#include "paris/rdf/utf8.h"
#include "paris/util/fs.h"

namespace paris::rdf {

namespace {

// Cursor over one line.
struct Cursor {
  std::string_view text;
  size_t pos = 0;

  bool AtEnd() const { return pos >= text.size(); }
  char Peek() const { return text[pos]; }
  void SkipSpace() {
    while (!AtEnd() && (text[pos] == ' ' || text[pos] == '\t')) ++pos;
  }
};

util::Status ParseError(const Cursor& c, std::string_view what) {
  std::ostringstream os;
  os << what << " at column " << (c.pos + 1) << " in: " << c.text;
  return util::InvalidArgumentError(os.str());
}

// Decodes \-escapes inside an IRI or literal body. Each run of plain bytes
// up to the next escape or terminator is copied with one append.
util::Status Unescape(Cursor& c, char terminator, std::string* out) {
  while (true) {
    size_t end = c.pos;
    while (end < c.text.size() && c.text[end] != terminator &&
           c.text[end] != '\\') {
      ++end;
    }
    out->append(c.text.data() + c.pos, end - c.pos);
    c.pos = end;
    if (c.AtEnd()) return ParseError(c, "unterminated token");
    if (c.text[c.pos] == terminator) {
      ++c.pos;
      return util::OkStatus();
    }
    ++c.pos;
    if (c.AtEnd()) return ParseError(c, "dangling escape");
    char esc = c.text[c.pos];
    ++c.pos;
    switch (esc) {
      case 't':
        out->push_back('\t');
        break;
      case 'n':
        out->push_back('\n');
        break;
      case 'r':
        out->push_back('\r');
        break;
      case '"':
        out->push_back('"');
        break;
      case '\\':
        out->push_back('\\');
        break;
      case 'u':
      case 'U': {
        const size_t ndigits = (esc == 'u') ? 4 : 8;
        if (c.pos + ndigits > c.text.size()) {
          return ParseError(c, "truncated \\u escape");
        }
        uint32_t code = 0;
        for (size_t i = 0; i < ndigits; ++i) {
          char d = c.text[c.pos + i];
          code <<= 4;
          if (d >= '0' && d <= '9') {
            code |= static_cast<uint32_t>(d - '0');
          } else if (d >= 'a' && d <= 'f') {
            code |= static_cast<uint32_t>(d - 'a' + 10);
          } else if (d >= 'A' && d <= 'F') {
            code |= static_cast<uint32_t>(d - 'A' + 10);
          } else {
            return ParseError(c, "bad hex digit in \\u escape");
          }
        }
        if (!internal::AppendUtf8(code, out)) {
          return ParseError(c, "\\u escape names no Unicode scalar value");
        }
        c.pos += ndigits;
        break;
      }
      default:
        return ParseError(c, "unknown escape");
    }
  }
}

util::Status ParseIri(Cursor& c, std::string* out) {
  if (c.AtEnd() || c.Peek() != '<') return ParseError(c, "expected '<'");
  ++c.pos;
  return Unescape(c, '>', out);
}

util::Status ParseLiteralToken(Cursor& c, ParsedTriple* out) {
  ++c.pos;  // consume opening quote
  util::Status s = Unescape(c, '"', &out->object);
  if (!s.ok()) return s;
  out->object_is_literal = true;
  if (!c.AtEnd() && c.Peek() == '^') {
    if (c.pos + 1 >= c.text.size() || c.text[c.pos + 1] != '^') {
      return ParseError(c, "expected '^^'");
    }
    c.pos += 2;
    return ParseIri(c, &out->datatype);
  }
  if (!c.AtEnd() && c.Peek() == '@') {
    ++c.pos;
    const size_t start = c.pos;
    while (!c.AtEnd() &&
           (std::isalnum(static_cast<unsigned char>(c.Peek())) ||
            c.Peek() == '-')) {
      ++c.pos;
    }
    if (c.pos == start) return ParseError(c, "empty language tag");
    out->language.assign(c.text.substr(start, c.pos - start));
  }
  return util::OkStatus();
}

}  // namespace

util::Status NTriplesParser::ParseLine(std::string_view line,
                                       ParsedTriple* out, bool* is_triple) {
  *is_triple = false;
  out->subject.clear();
  out->predicate.clear();
  out->object.clear();
  out->object_is_literal = false;
  out->datatype.clear();
  out->language.clear();
  Cursor c{line, 0};
  c.SkipSpace();
  if (c.AtEnd() || c.Peek() == '#') return util::OkStatus();
  if (c.Peek() == '_') {
    return ParseError(c, "blank nodes are not supported");
  }

  util::Status s = ParseIri(c, &out->subject);
  if (!s.ok()) return s;
  c.SkipSpace();
  s = ParseIri(c, &out->predicate);
  if (!s.ok()) return s;
  c.SkipSpace();
  if (c.AtEnd()) return ParseError(c, "missing object");
  if (c.Peek() == '"') {
    s = ParseLiteralToken(c, out);
  } else if (c.Peek() == '<') {
    out->object_is_literal = false;
    s = ParseIri(c, &out->object);
  } else if (c.Peek() == '_') {
    return ParseError(c, "blank nodes are not supported");
  } else {
    return ParseError(c, "expected IRI or literal object");
  }
  if (!s.ok()) return s;
  c.SkipSpace();
  if (c.AtEnd() || c.Peek() != '.') return ParseError(c, "expected '.'");
  ++c.pos;
  c.SkipSpace();
  if (!c.AtEnd()) return ParseError(c, "trailing content after '.'");
  *is_triple = true;
  return util::OkStatus();
}

util::Status NTriplesParser::ParseDocument(std::string_view text,
                                           TripleSink* sink) {
  // One triple for the whole document: once its strings have grown to the
  // longest fields seen, parsing a line allocates nothing.
  ParsedTriple triple;
  size_t line_number = 0;
  size_t start = 0;
  while (start <= text.size()) {
    ++line_number;
    size_t end = text.find('\n', start);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(start, end - start);
    if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
    bool is_triple = false;
    util::Status s = ParseLine(line, &triple, &is_triple);
    if (!s.ok()) {
      return util::InvalidArgumentError("line " + std::to_string(line_number) +
                                        ": " + s.message());
    }
    if (is_triple) sink->OnTriple(triple);
    if (end == text.size()) break;
    start = end + 1;
  }
  return util::OkStatus();
}

util::Status NTriplesParser::ParseFile(const std::string& path,
                                       TripleSink* sink) {
  util::StatusOr<std::string> text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseDocument(*text, sink);
}

std::string EscapeLiteral(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        out.push_back(c);
    }
  }
  return out;
}

std::string NTriplesWriter::FormatTriple(const ParsedTriple& t) {
  std::string out;
  out += "<" + t.subject + "> <" + t.predicate + "> ";
  if (t.object_is_literal) {
    out += "\"" + EscapeLiteral(t.object) + "\"";
    if (!t.datatype.empty()) {
      out += "^^<" + t.datatype + ">";
    } else if (!t.language.empty()) {
      out += "@" + t.language;
    }
  } else {
    out += "<" + t.object + ">";
  }
  out += " .";
  return out;
}

void NTriplesWriter::WriteTriples(const std::vector<ParsedTriple>& triples,
                                  std::ostream& out) {
  for (const auto& t : triples) {
    out << FormatTriple(t) << "\n";
  }
}

}  // namespace paris::rdf

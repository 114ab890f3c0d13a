#include "paris/rdf/turtle.h"

#include <cctype>
#include <unordered_map>
#include <vector>

#include "paris/ontology/vocab.h"
#include "paris/rdf/utf8.h"
#include "paris/util/fs.h"

namespace paris::rdf {

namespace {

// Token kinds produced by the scanner.
enum class TokenKind {
  kIri,           // <...> (unescaped)
  kPrefixedName,  // ex:name (raw; resolved later), also bare "a"
  kLiteral,       // string body (unescaped); datatype/lang in side fields
  kNumber,        // numeric abbreviation
  kBoolean,       // true / false
  kDot,
  kSemicolon,
  kComma,
  kAtPrefix,  // @prefix or PREFIX
  kEnd,
};

struct Token {
  TokenKind kind = TokenKind::kEnd;
  std::string text;      // IRI body, prefixed name, literal body, number
  std::string datatype;  // for kLiteral
  std::string language;  // for kLiteral
  size_t line = 0;
};

class Scanner {
 public:
  explicit Scanner(std::string_view text) : text_(text) {}

  util::Status Next(Token* token) {
    SkipWhitespaceAndComments();
    token->text.clear();
    token->datatype.clear();
    token->language.clear();
    token->line = line_;
    if (AtEnd()) {
      token->kind = TokenKind::kEnd;
      return util::OkStatus();
    }
    const char c = Peek();
    switch (c) {
      case '.':
        // Distinguish statement dot from a decimal point (handled in
        // number scanning; a bare '.' here is always a terminator).
        ++pos_;
        token->kind = TokenKind::kDot;
        return util::OkStatus();
      case ';':
        ++pos_;
        token->kind = TokenKind::kSemicolon;
        return util::OkStatus();
      case ',':
        ++pos_;
        token->kind = TokenKind::kComma;
        return util::OkStatus();
      case '<':
        return ScanIri(token);
      case '"':
      case '\'':
        return ScanLiteral(token, c);
      case '@':
        return ScanAtKeyword(token);
      case '(':
      case ')':
        return Error("collections are not supported");
      case '[':
      case ']':
        return Error("blank nodes are not supported");
      case '_':
        return Error("blank nodes are not supported");
      default:
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '+' ||
            c == '-') {
          return ScanNumber(token);
        }
        return ScanName(token);
    }
  }

  size_t line() const { return line_; }

 private:
  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return text_[pos_]; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < text_.size() ? text_[pos_ + offset] : '\0';
  }

  util::Status Error(const std::string& what) const {
    return util::InvalidArgumentError("line " + std::to_string(line_) + ": " +
                                      what);
  }

  void SkipWhitespaceAndComments() {
    while (!AtEnd()) {
      const char c = Peek();
      if (c == '\n') {
        ++line_;
        ++pos_;
      } else if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '#') {
        while (!AtEnd() && Peek() != '\n') ++pos_;
      } else {
        break;
      }
    }
  }

  util::Status ScanIri(Token* token) {
    ++pos_;  // consume '<'
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated IRI");
      const char c = Peek();
      if (c == '>') {
        ++pos_;
        break;
      }
      if (c == '\\') {
        util::Status s = AppendEscape(&out);
        if (!s.ok()) return s;
        continue;
      }
      if (c == '\n') return Error("newline in IRI");
      out.push_back(c);
      ++pos_;
    }
    token->kind = TokenKind::kIri;
    token->text = std::move(out);
    return util::OkStatus();
  }

  // Handles \t \n \r \" \' \\ \uXXXX \UXXXXXXXX; cursor on the backslash.
  util::Status AppendEscape(std::string* out) {
    ++pos_;  // consume backslash
    if (AtEnd()) return Error("dangling escape");
    const char esc = Peek();
    ++pos_;
    switch (esc) {
      case 't':
        out->push_back('\t');
        return util::OkStatus();
      case 'n':
        out->push_back('\n');
        return util::OkStatus();
      case 'r':
        out->push_back('\r');
        return util::OkStatus();
      case '"':
        out->push_back('"');
        return util::OkStatus();
      case '\'':
        out->push_back('\'');
        return util::OkStatus();
      case '\\':
        out->push_back('\\');
        return util::OkStatus();
      case 'u':
      case 'U': {
        const size_t ndigits = esc == 'u' ? 4 : 8;
        uint32_t code = 0;
        for (size_t i = 0; i < ndigits; ++i) {
          if (AtEnd()) return Error("truncated unicode escape");
          const char d = Peek();
          code <<= 4;
          if (d >= '0' && d <= '9') {
            code |= static_cast<uint32_t>(d - '0');
          } else if (d >= 'a' && d <= 'f') {
            code |= static_cast<uint32_t>(d - 'a' + 10);
          } else if (d >= 'A' && d <= 'F') {
            code |= static_cast<uint32_t>(d - 'A' + 10);
          } else {
            return Error("bad hex digit in unicode escape");
          }
          ++pos_;
        }
        if (!internal::AppendUtf8(code, out)) {
          return Error("unicode escape names no Unicode scalar value");
        }
        return util::OkStatus();
      }
      default:
        return Error("unknown escape");
    }
  }

  util::Status ScanLiteral(Token* token, char quote) {
    // Long string ("""...""" or '''...''')?
    const bool long_string = PeekAt(1) == quote && PeekAt(2) == quote;
    pos_ += long_string ? 3 : 1;
    std::string out;
    while (true) {
      if (AtEnd()) return Error("unterminated string literal");
      const char c = Peek();
      if (c == quote) {
        if (!long_string) {
          ++pos_;
          break;
        }
        if (PeekAt(1) == quote && PeekAt(2) == quote) {
          pos_ += 3;
          break;
        }
        out.push_back(c);
        ++pos_;
        continue;
      }
      if (c == '\\') {
        util::Status s = AppendEscape(&out);
        if (!s.ok()) return s;
        continue;
      }
      if (c == '\n') {
        if (!long_string) return Error("newline in string literal");
        ++line_;
      }
      out.push_back(c);
      ++pos_;
    }
    token->kind = TokenKind::kLiteral;
    token->text = std::move(out);
    // Optional ^^datatype or @lang suffix.
    if (!AtEnd() && Peek() == '^') {
      if (PeekAt(1) != '^') return Error("expected '^^'");
      pos_ += 2;
      Token dt;
      if (AtEnd()) return Error("missing datatype");
      if (Peek() == '<') {
        util::Status s = ScanIri(&dt);
        if (!s.ok()) return s;
        token->datatype = dt.text;
      } else {
        util::Status s = ScanName(&dt);
        if (!s.ok()) return s;
        token->datatype = dt.text;  // prefixed datatype kept verbatim
      }
    } else if (!AtEnd() && Peek() == '@') {
      ++pos_;
      std::string lang;
      while (!AtEnd() &&
             (std::isalnum(static_cast<unsigned char>(Peek())) ||
              Peek() == '-')) {
        lang.push_back(Peek());
        ++pos_;
      }
      if (lang.empty()) return Error("empty language tag");
      token->language = std::move(lang);
    }
    return util::OkStatus();
  }

  util::Status ScanAtKeyword(Token* token) {
    ++pos_;  // consume '@'
    std::string word;
    while (!AtEnd() && std::isalpha(static_cast<unsigned char>(Peek()))) {
      word.push_back(Peek());
      ++pos_;
    }
    if (word == "prefix") {
      token->kind = TokenKind::kAtPrefix;
      return util::OkStatus();
    }
    if (word == "base") return Error("@base is not supported");
    return Error("unknown @ directive: @" + word);
  }

  util::Status ScanNumber(Token* token) {
    std::string out;
    if (Peek() == '+' || Peek() == '-') {
      out.push_back(Peek());
      ++pos_;
    }
    bool saw_digit = false;
    while (!AtEnd()) {
      const char c = Peek();
      if (std::isdigit(static_cast<unsigned char>(c))) {
        saw_digit = true;
        out.push_back(c);
        ++pos_;
        continue;
      }
      // A '.' is part of the number only if followed by a digit
      // (otherwise it terminates the statement).
      if (c == '.' && std::isdigit(static_cast<unsigned char>(PeekAt(1)))) {
        out.push_back(c);
        ++pos_;
        continue;
      }
      if ((c == 'e' || c == 'E') && saw_digit) {
        out.push_back(c);
        ++pos_;
        if (!AtEnd() && (Peek() == '+' || Peek() == '-')) {
          out.push_back(Peek());
          ++pos_;
        }
        continue;
      }
      break;
    }
    if (!saw_digit) return Error("malformed number");
    token->kind = TokenKind::kNumber;
    token->text = std::move(out);
    return util::OkStatus();
  }

  // Prefixed name (ex:name), bare keyword (a, true, false), or the
  // SPARQL-style PREFIX directive.
  util::Status ScanName(Token* token) {
    std::string out;
    while (!AtEnd()) {
      const char c = Peek();
      if (std::isspace(static_cast<unsigned char>(c)) || c == ';' ||
          c == ',' || c == '#' || c == '"' || c == '\'' || c == '<' ||
          c == '(' || c == ')' || c == '[' || c == ']') {
        break;
      }
      // A '.' ends the name unless followed by a name character (IRI local
      // parts may contain dots, e.g. ex:v1.2, but "ex:x ." must split).
      if (c == '.') {
        const char next = PeekAt(1);
        if (!(std::isalnum(static_cast<unsigned char>(next)) ||
              next == '_' || next == '-')) {
          break;
        }
      }
      out.push_back(c);
      ++pos_;
    }
    if (out.empty()) return Error("unexpected character");
    if (out == "true" || out == "false") {
      token->kind = TokenKind::kBoolean;
      token->text = std::move(out);
      return util::OkStatus();
    }
    if (out == "PREFIX" || out == "prefix") {
      token->kind = TokenKind::kAtPrefix;
      return util::OkStatus();
    }
    token->kind = TokenKind::kPrefixedName;
    token->text = std::move(out);
    return util::OkStatus();
  }

  std::string_view text_;
  size_t pos_ = 0;
  size_t line_ = 1;
};

// Statement-level parser driving the scanner.
class Parser {
 public:
  Parser(std::string_view text, TripleSink* sink)
      : scanner_(text), sink_(sink) {}

  util::Status Run() {
    util::Status s = Advance();
    if (!s.ok()) return s;
    while (token_.kind != TokenKind::kEnd) {
      if (token_.kind == TokenKind::kAtPrefix) {
        s = ParsePrefixDirective();
      } else {
        s = ParseStatement();
      }
      if (!s.ok()) return s;
    }
    return util::OkStatus();
  }

 private:
  util::Status Advance() { return scanner_.Next(&token_); }

  util::Status Error(const std::string& what) const {
    return util::InvalidArgumentError(
        "line " + std::to_string(token_.line) + ": " + what);
  }

  // @prefix ex: <http://...> .
  util::Status ParsePrefixDirective() {
    util::Status s = Advance();
    if (!s.ok()) return s;
    if (token_.kind != TokenKind::kPrefixedName || token_.text.empty() ||
        token_.text.back() != ':') {
      return Error("expected prefix label ending in ':'");
    }
    const std::string label = token_.text.substr(0, token_.text.size() - 1);
    s = Advance();
    if (!s.ok()) return s;
    if (token_.kind != TokenKind::kIri) return Error("expected IRI");
    prefixes_[label] = token_.text;
    s = Advance();
    if (!s.ok()) return s;
    // @prefix requires a dot; SPARQL-style PREFIX does not.
    if (token_.kind == TokenKind::kDot) return Advance();
    return util::OkStatus();
  }

  // Expands ex:name using the declared prefixes. The bare keyword `a`
  // expands to rdf:type.
  util::Status ResolveName(const std::string& name, std::string* out) const {
    if (name == "a") {
      *out = std::string(ontology::kRdfType);
      return util::OkStatus();
    }
    const size_t colon = name.find(':');
    if (colon == std::string::npos) {
      return util::InvalidArgumentError("line " + std::to_string(token_.line) +
                                        ": bare name without prefix: " + name);
    }
    const std::string prefix = name.substr(0, colon);
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return util::InvalidArgumentError("line " + std::to_string(token_.line) +
                                        ": undeclared prefix: " + prefix);
    }
    *out = it->second + name.substr(colon + 1);
    return util::OkStatus();
  }

  // subject predicate object (',' object)* (';' predicate ...)* '.'
  util::Status ParseStatement() {
    std::string subject;
    util::Status s = ParseResource(&subject, "subject");
    if (!s.ok()) return s;

    while (true) {
      std::string predicate;
      s = ParseResource(&predicate, "predicate");
      if (!s.ok()) return s;

      while (true) {
        ParsedTriple triple;
        triple.subject = subject;
        triple.predicate = predicate;
        s = ParseObject(&triple);
        if (!s.ok()) return s;
        sink_->OnTriple(triple);
        if (token_.kind == TokenKind::kComma) {
          s = Advance();
          if (!s.ok()) return s;
          continue;
        }
        break;
      }

      if (token_.kind == TokenKind::kSemicolon) {
        s = Advance();
        if (!s.ok()) return s;
        // A trailing ';' before '.' is legal Turtle.
        if (token_.kind == TokenKind::kDot) break;
        continue;
      }
      break;
    }
    if (token_.kind != TokenKind::kDot) return Error("expected '.'");
    return Advance();
  }

  // Consumes the current token as an IRI or prefixed name.
  util::Status ParseResource(std::string* out, const char* what) {
    if (token_.kind == TokenKind::kIri) {
      *out = token_.text;
      return Advance();
    }
    if (token_.kind == TokenKind::kPrefixedName) {
      util::Status s = ResolveName(token_.text, out);
      if (!s.ok()) return s;
      return Advance();
    }
    return Error(std::string("expected ") + what);
  }

  util::Status ParseObject(ParsedTriple* triple) {
    switch (token_.kind) {
      case TokenKind::kIri:
      case TokenKind::kPrefixedName: {
        triple->object_is_literal = false;
        return ParseResource(&triple->object, "object");
      }
      case TokenKind::kLiteral: {
        triple->object_is_literal = true;
        triple->object = token_.text;
        triple->language = token_.language;
        if (!token_.datatype.empty()) {
          // Datatype may itself be a prefixed name.
          if (token_.datatype.find("://") == std::string::npos &&
              token_.datatype.find(':') != std::string::npos) {
            util::Status s = ResolveName(token_.datatype, &triple->datatype);
            if (!s.ok()) triple->datatype = token_.datatype;  // keep verbatim
          } else {
            triple->datatype = token_.datatype;
          }
        }
        return Advance();
      }
      case TokenKind::kNumber: {
        triple->object_is_literal = true;
        triple->object = token_.text;
        triple->datatype = token_.text.find('.') != std::string::npos ||
                                   token_.text.find('e') != std::string::npos
                               ? "http://www.w3.org/2001/XMLSchema#decimal"
                               : "http://www.w3.org/2001/XMLSchema#integer";
        return Advance();
      }
      case TokenKind::kBoolean: {
        triple->object_is_literal = true;
        triple->object = token_.text;
        triple->datatype = "http://www.w3.org/2001/XMLSchema#boolean";
        return Advance();
      }
      default:
        return Error("expected object");
    }
  }

  Scanner scanner_;
  TripleSink* sink_;
  Token token_;
  std::unordered_map<std::string, std::string> prefixes_;
};

}  // namespace

util::Status TurtleParser::ParseDocument(std::string_view text,
                                         TripleSink* sink) {
  Parser parser(text, sink);
  return parser.Run();
}

util::Status TurtleParser::ParseFile(const std::string& path,
                                     TripleSink* sink) {
  util::StatusOr<std::string> text = util::ReadFile(path);
  if (!text.ok()) return text.status();
  return ParseDocument(*text, sink);
}

}  // namespace paris::rdf

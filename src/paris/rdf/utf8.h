#ifndef PARIS_RDF_UTF8_H_
#define PARIS_RDF_UTF8_H_

#include <cstdint>
#include <string>

namespace paris::rdf::internal {

// Appends the UTF-8 encoding of `code` to `out`, as the N-Triples and Turtle
// parsers decode \u and \U escapes. Returns false and appends nothing when
// `code` names no Unicode scalar value: above U+10FFFF, or a UTF-16
// surrogate in U+D800–U+DFFF.
inline bool AppendUtf8(uint32_t code, std::string* out) {
  if (code > 0x10FFFF || (code >= 0xD800 && code <= 0xDFFF)) return false;
  char bytes[4] = {};
  size_t n = 0;
  if (code < 0x80) {
    bytes[0] = static_cast<char>(code);
    n = 1;
  } else if (code < 0x800) {
    bytes[0] = static_cast<char>(0xc0 | (code >> 6));
    bytes[1] = static_cast<char>(0x80 | (code & 0x3f));
    n = 2;
  } else if (code < 0x10000) {
    bytes[0] = static_cast<char>(0xe0 | (code >> 12));
    bytes[1] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    bytes[2] = static_cast<char>(0x80 | (code & 0x3f));
    n = 3;
  } else {
    bytes[0] = static_cast<char>(0xf0 | (code >> 18));
    bytes[1] = static_cast<char>(0x80 | ((code >> 12) & 0x3f));
    bytes[2] = static_cast<char>(0x80 | ((code >> 6) & 0x3f));
    bytes[3] = static_cast<char>(0x80 | (code & 0x3f));
    n = 4;
  }
  out->append(bytes, n);
  return true;
}

}  // namespace paris::rdf::internal

#endif  // PARIS_RDF_UTF8_H_

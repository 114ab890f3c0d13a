#ifndef PARIS_RDF_TERM_H_
#define PARIS_RDF_TERM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <string_view>
#include <vector>

namespace paris::rdf {

// Dense identifier of an interned RDF term (resource IRI or literal).
// Term ids are indexes into a `TermPool`. The pool is *shared across the two
// ontologies being aligned* so that a literal has a single id regardless of
// which ontology mentions it; literal identity then reduces to id equality
// (the paper's default literal equality function, §5.3).
using TermId = uint32_t;

inline constexpr TermId kNullTerm = std::numeric_limits<TermId>::max();

enum class TermKind : uint8_t {
  kIri = 0,      // a resource (instance, class, or relation name)
  kLiteral = 1,  // a string/number/date literal (lexical form, datatype-free)
};

// Interning pool for RDF terms. An IRI and a literal with the same lexical
// form are distinct terms. Lookup is by (lexical form, kind); ids are dense
// in first-intern order and stable for the lifetime of the pool.
//
// Layout: the lexical bytes live once, in append-only blocks that never
// move; per id the pool keeps one string_view into them and one kind byte;
// lookup goes through one open-addressed table of ids (linear probing,
// power-of-two capacity, load at most 1/2), each 64-bit slot holding the
// id and a 32-bit tag of the (kind, lexical) hash. A `lexical(id)` view
// therefore stays valid for the pool's lifetime, across later interning,
// and interning a view of the pool's own bytes is safe.
//
// Thread-compatibility: interning mutates the pool and must be externally
// synchronized; read accessors (Find included) are safe to call
// concurrently once loading is done (the alignment passes are read-only on
// the pool). Find allocates nothing.
class TermPool {
 public:
  TermPool() = default;
  TermPool(const TermPool&) = delete;
  TermPool& operator=(const TermPool&) = delete;

  // Interns an IRI / literal, returning the existing id if already present.
  TermId InternIri(std::string_view lexical) {
    return Intern(lexical, TermKind::kIri);
  }
  TermId InternLiteral(std::string_view lexical) {
    return Intern(lexical, TermKind::kLiteral);
  }
  TermId Intern(std::string_view lexical, TermKind kind);

  // Lookup without interning.
  std::optional<TermId> Find(std::string_view lexical, TermKind kind) const;

  std::string_view lexical(TermId id) const { return lexical_[id]; }
  TermKind kind(TermId id) const { return kind_[id]; }
  bool IsLiteral(TermId id) const { return kind_[id] == TermKind::kLiteral; }

  // Number of interned terms; valid ids are [0, size()).
  size_t size() const { return lexical_.size(); }

  // Sizes the per-id arrays and the table for `terms` terms in total, so
  // interning up to that many allocates only lexical blocks.
  void Reserve(size_t terms);

 private:
  static constexpr uint64_t kEmptySlot = ~uint64_t{0};

  // Where (lexical, kind) sits in the table: the slot holding its id, or
  // the empty slot that ends its probe sequence.
  size_t Probe(std::string_view lexical, TermKind kind, uint32_t tag) const;
  // Copies `lexical` into the block arena.
  std::string_view Store(std::string_view lexical);
  void Rehash(size_t capacity);

  std::vector<std::unique_ptr<char[]>> blocks_;
  char* block_cursor_ = nullptr;
  size_t block_left_ = 0;
  std::vector<std::string_view> lexical_;
  std::vector<TermKind> kind_;
  std::vector<uint64_t> slots_;  // (tag << 32) | id, or kEmptySlot
};

}  // namespace paris::rdf

#endif  // PARIS_RDF_TERM_H_

#ifndef PARIS_STORAGE_TRI_INDEX_H_
#define PARIS_STORAGE_TRI_INDEX_H_

#include <cstddef>
#include <cstdint>

#include "paris/rdf/triple.h"

namespace paris::storage {

// The three triple positions, in canonical (subject, relation, object)
// order. Used to address pattern slots.
enum class TriPos : uint8_t { kSubject = 0, kRel = 1, kObject = 2 };

// A triple pattern: each position is bound to a value, a variable (report
// its bindings), or ignored (match anything, collapse duplicates). The
// relation may be bound to an inverse id `-r`; the engine normalizes that
// to the equivalent positive-relation pattern by swapping the subject and
// object slots. `rdf::TripleStore::Scan` answers every pattern from the
// store's `ColumnarIndex` (see src/paris/storage/README.md).
struct TriplePattern {
  enum class Slot : uint8_t { kVariable = 0, kBound = 1, kIgnored = 2 };

  // Defaults to the all-variable pattern (every triple).
  TriplePattern() = default;

  TriplePattern& BindSubject(rdf::TermId s) {
    slots[0] = Slot::kBound;
    values[0] = s;
    return *this;
  }
  TriplePattern& BindRel(rdf::RelId r) {
    slots[1] = Slot::kBound;
    values[1] = static_cast<uint32_t>(r);
    return *this;
  }
  TriplePattern& BindObject(rdf::TermId o) {
    slots[2] = Slot::kBound;
    values[2] = o;
    return *this;
  }
  TriplePattern& IgnoreSubject() {
    slots[0] = Slot::kIgnored;
    return *this;
  }
  TriplePattern& IgnoreRel() {
    slots[1] = Slot::kIgnored;
    return *this;
  }
  TriplePattern& IgnoreObject() {
    slots[2] = Slot::kIgnored;
    return *this;
  }

  Slot slot(TriPos p) const { return slots[static_cast<size_t>(p)]; }
  bool bound(TriPos p) const { return slot(p) == Slot::kBound; }
  rdf::RelId rel() const { return static_cast<rdf::RelId>(values[1]); }

  // Indexed by TriPos: slot states and bound values. values[1] holds the
  // RelId bit pattern; values[0]/values[2] hold term ids.
  Slot slots[3] = {Slot::kVariable, Slot::kVariable, Slot::kVariable};
  uint32_t values[3] = {0, 0, 0};
};

}  // namespace paris::storage

#endif  // PARIS_STORAGE_TRI_INDEX_H_

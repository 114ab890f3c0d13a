#ifndef PARIS_CORE_EQUIV_H_
#define PARIS_CORE_EQUIV_H_

#include <cstddef>
#include <memory>
#include <span>
#include <unordered_map>
#include <vector>

#include "paris/rdf/term.h"
#include "paris/util/status.h"

namespace paris::storage {
class SnapshotReader;
class SnapshotWriter;
}  // namespace paris::storage

namespace paris::core {

class InstanceEquivalences;

// Result-snapshot section I/O (src/core/result_snapshot.h); friends of
// InstanceEquivalences.
void SaveInstanceEquivalences(const InstanceEquivalences& equiv,
                              storage::SnapshotWriter& writer);
util::StatusOr<InstanceEquivalences> LoadInstanceEquivalences(
    storage::SnapshotReader& reader, size_t pool_size);

// One equivalence candidate: another ontology's term with Pr(x ≡ other).
struct Candidate {
  rdf::TermId other = rdf::kNullTerm;
  double prob = 0.0;

  friend bool operator==(const Candidate& a, const Candidate& b) {
    return a.other == b.other && a.prob == b.prob;
  }
};

// Sparse bidirectional store of instance-equivalence probabilities between a
// "left" and a "right" ontology. Only strictly positive (above-threshold)
// probabilities are stored (§5.2: unknown and zero coincide in the
// positive-evidence equations).
//
// Build protocol: `Set()` candidate lists (computed left→right), then
// `Finalize()` once to derive the transpose and both maximal assignments.
// Reads are valid (and thread-safe) only after finalization.
class InstanceEquivalences {
 public:
  InstanceEquivalences() = default;

  // Sets the candidates of `left`; `candidates` must be sorted by
  // descending probability (ties broken by ascending id). Empty lists are
  // allowed and equivalent to not calling Set.
  void Set(rdf::TermId left, std::vector<Candidate> candidates);

  // Builds the transpose and the two maximal assignments.
  void Finalize();
  bool finalized() const { return finalized_; }

  // All equivalents with positive probability, best first.
  std::span<const Candidate> LeftToRight(rdf::TermId left) const;
  std::span<const Candidate> RightToLeft(rdf::TermId right) const;

  // The maximal assignment (§4.2): the single best counterpart, ties broken
  // deterministically by smallest term id. Null if none.
  const Candidate* MaxOfLeft(rdf::TermId left) const;
  const Candidate* MaxOfRight(rdf::TermId right) const;

  const std::unordered_map<rdf::TermId, Candidate>& max_left() const {
    return tables().max_left;
  }
  const std::unordered_map<rdf::TermId, Candidate>& max_right() const {
    return tables().max_right;
  }

  // Number of left instances with at least one candidate.
  size_t num_left_aligned() const { return tables().left_to_right.size(); }

  // Fraction of left entities whose maximal assignment differs from
  // `previous` (the convergence criterion of §5.1/§6.1). The denominator is
  // the number of entities assigned in either store (≥ 1).
  double MaxAssignmentChangeFraction(const InstanceEquivalences& previous) const;

  // Appends to `out` every left term whose full candidate list differs
  // between `*this` and `other`: gained a list, lost it, or any candidate's
  // probability moved (exact double comparison — the semi-naive fixpoint
  // reuses a slot only when its inputs are bit-identical). Full-list
  // equality implies maximal-assignment equality, so one diff is sound for
  // both the maximal-only and full-equalities evidence modes. `out` is
  // sorted ascending and deduplicated on return.
  void DiffLeftTerms(const InstanceEquivalences& other,
                     std::vector<rdf::TermId>* out) const;
  // Same over right terms (the transposed lists); both stores must be
  // finalized.
  void DiffRightTerms(const InstanceEquivalences& other,
                      std::vector<rdf::TermId>* out) const;

 private:
  friend InstanceEquivalences BlendEquivalences(
      const InstanceEquivalences& previous, const InstanceEquivalences& fresh,
      double lambda, double threshold, size_t max_candidates);
  friend void SaveInstanceEquivalences(const InstanceEquivalences& equiv,
                                       storage::SnapshotWriter& writer);
  friend util::StatusOr<InstanceEquivalences> LoadInstanceEquivalences(
      storage::SnapshotReader& reader, size_t pool_size);

  struct Tables {
    std::unordered_map<rdf::TermId, std::vector<Candidate>> left_to_right;
    std::unordered_map<rdf::TermId, std::vector<Candidate>> right_to_left;
    std::unordered_map<rdf::TermId, Candidate> max_left;
    std::unordered_map<rdf::TermId, Candidate> max_right;
  };

  // The tables, empty when `tables_` is null (a default-constructed or
  // moved-from store).
  const Tables& tables() const;
  // The tables for Set/Finalize to write, first cloned if another store
  // shares them.
  Tables& MutableTables();

  bool finalized_ = false;
  // Shared between copies. A finalized store is immutable, so copying one
  // costs a reference count, not a deep copy: the semi-naive fixpoint
  // hands the same store around every iteration once it has converged.
  std::shared_ptr<Tables> tables_;
};

// Dampened fixpoint update (the convergence device §5.1 mentions): returns
// a finalized store whose probabilities are λ·previous + (1-λ)·fresh over
// the union of candidates, dropping blended values below `threshold` and
// keeping at most `max_candidates` per instance.
InstanceEquivalences BlendEquivalences(const InstanceEquivalences& previous,
                                       const InstanceEquivalences& fresh,
                                       double lambda, double threshold,
                                       size_t max_candidates);

}  // namespace paris::core

#endif  // PARIS_CORE_EQUIV_H_

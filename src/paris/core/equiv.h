#ifndef PARIS_CORE_EQUIV_H_
#define PARIS_CORE_EQUIV_H_

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
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
// Layout (core/README.md, "Equivalence store"): each side is a CSR — one
// flat candidate column, u32 row offsets and the row keys in ascending
// order — found through a dense `TermId → row` index. The left rows are
// what `Set` wrote; the right rows are their transpose. A row is sorted
// best first, so a term's maximal assignment is the front of its row.
//
// Build protocol: `Set()` candidate lists (computed left→right), then
// `Finalize()` once to index both sides and build the transpose. Reads are
// valid (and thread-safe) only after finalization.
class InstanceEquivalences {
 public:
  InstanceEquivalences() = default;

  // Sets the candidates of `left`; `candidates` must be sorted by
  // descending probability (ties broken by ascending id). Appends a row; a
  // later Set of the same term replaces the earlier list. Empty lists are
  // allowed and equivalent to not calling Set.
  void Set(rdf::TermId left, std::span<const Candidate> candidates);

  // Indexes both sides and builds the transpose.
  void Finalize();
  bool finalized() const { return finalized_; }

  // All equivalents with positive probability, best first.
  std::span<const Candidate> LeftToRight(rdf::TermId left) const {
    assert(finalized_);
    return tables().left.Find(left);
  }
  std::span<const Candidate> RightToLeft(rdf::TermId right) const {
    assert(finalized_);
    return tables().right.Find(right);
  }

  // The maximal assignment (§4.2): the single best counterpart, ties broken
  // deterministically by smallest term id. Null if none.
  const Candidate* MaxOfLeft(rdf::TermId left) const {
    const auto row = LeftToRight(left);
    return row.empty() ? nullptr : row.data();
  }
  const Candidate* MaxOfRight(rdf::TermId right) const {
    const auto row = RightToLeft(right);
    return row.empty() ? nullptr : row.data();
  }

  // Calls `fn(term, best)` for every term of one side with a candidate, in
  // ascending term order: the maximal assignment as one ordered walk.
  template <typename Fn>
  void ForEachMaxOfLeft(Fn&& fn) const {
    assert(finalized_);
    tables().left.ForEachFront(fn);
  }
  template <typename Fn>
  void ForEachMaxOfRight(Fn&& fn) const {
    assert(finalized_);
    tables().right.ForEachFront(fn);
  }

  // Number of left instances with at least one candidate.
  size_t num_left_aligned() const {
    assert(finalized_);
    return tables().left.keys.size();
  }

  // Fraction of left entities whose maximal assignment differs from
  // `previous` (the convergence criterion of §5.1/§6.1). The denominator is
  // the number of entities assigned in either store (≥ 1).
  double MaxAssignmentChangeFraction(
      const InstanceEquivalences& previous) const;

  // Appends to `out`, in ascending order, every left term whose full
  // candidate list differs between `*this` and `other`: gained a list, lost
  // it, or any candidate's probability moved (exact double comparison — the
  // semi-naive fixpoint reuses a slot only when its inputs are
  // bit-identical). Full-list equality implies maximal-assignment equality,
  // so one diff is sound for both the maximal-only and full-equalities
  // evidence modes. Both stores must be finalized.
  void DiffLeftTerms(const InstanceEquivalences& other,
                     std::vector<rdf::TermId>* out) const;
  // Same over right terms (the transposed lists).
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

  // One side in CSR form: row r holds column[offsets[r], offsets[r + 1])
  // for term keys[r].
  struct Rows {
    static constexpr uint32_t kNoRow = UINT32_MAX;

    // Ascending once finalized.
    std::vector<rdf::TermId> keys;
    // keys.size() + 1 entries.
    std::vector<uint32_t> offsets{0};
    std::vector<Candidate> column;
    // Dense TermId → row up to the largest key, kNoRow elsewhere; built by
    // Finalize.
    std::vector<uint32_t> row_of;

    std::span<const Candidate> Row(size_t row) const {
      return {column.data() + offsets[row], offsets[row + 1] - offsets[row]};
    }
    std::span<const Candidate> Find(rdf::TermId term) const {
      const uint32_t row =
          static_cast<size_t>(term) < row_of.size() ? row_of[term] : kNoRow;
      return row == kNoRow ? std::span<const Candidate>() : Row(row);
    }
    void Append(rdf::TermId key, std::span<const Candidate> candidates);
    template <typename Fn>
    void ForEachFront(Fn&& fn) const {
      for (size_t row = 0; row < keys.size(); ++row) {
        fn(keys[row], column[offsets[row]]);
      }
    }
    // Builds `row_of`. Rows that were not set in strictly ascending key
    // order, or a key set twice, are first rewritten in ascending order,
    // keeping each key's last row.
    void BuildIndex();
  };

  struct Tables {
    Rows left;
    Rows right;
  };

  // The tables, empty when `tables_` is null (a default-constructed or
  // moved-from store).
  const Tables& tables() const {
    return tables_ != nullptr ? *tables_ : EmptyTables();
  }
  static const Tables& EmptyTables();
  // The tables for Set/Finalize to write, first cloned if another store
  // shares them.
  Tables& MutableTables();

  bool finalized_ = false;
  // Shared between copies. A finalized store is immutable, so copying one
  // costs a reference count, not a deep copy: the semi-naive fixpoint
  // hands the same store around every iteration once it has converged, and
  // each IterationRecord keeps its iteration's store this way.
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

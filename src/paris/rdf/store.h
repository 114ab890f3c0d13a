#ifndef PARIS_RDF_STORE_H_
#define PARIS_RDF_STORE_H_

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/columnar_index.h"
#include "paris/storage/tri_index.h"
#include "paris/util/status.h"

namespace paris::storage {
class SnapshotReader;
class SnapshotWriter;
}  // namespace paris::storage

namespace paris::util {
class ThreadPool;
}  // namespace paris::util

namespace paris::rdf {

// Per-ontology fact storage, optimized for the access pattern of the PARIS
// alignment passes (§5.2 of the paper): given an entity, iterate every
// statement it participates in (in either argument position), and given a
// relation, iterate its (first, second) pairs.
//
// Usage: `Add()` triples, then `Finalize()` exactly once; all read accessors
// require a finalized store. Finalization packs the statements into a
// `storage::ColumnarIndex` — CSR adjacency plus sorted SPO/POS permutations
// — so every read accessor returns a span into the packed columns and never
// allocates. `Finalize()` also removes duplicate statements (an RDFS
// ontology is a *set* of triples).
class TripleStore {
 public:
  explicit TripleStore(TermPool* pool) : pool_(pool) {}
  TripleStore(const TripleStore&) = delete;
  TripleStore& operator=(const TripleStore&) = delete;
  TripleStore(TripleStore&&) = default;
  TripleStore& operator=(TripleStore&&) = default;

  TermPool& pool() const { return *pool_; }

  // Registers (or finds) a relation by its name term. Returns its positive id.
  RelId InternRelation(TermId name);
  std::optional<RelId> FindRelation(TermId name) const;

  // Adds statement rel(subject, object). `rel` may be negative (inverse), in
  // which case the statement BaseRel(rel)(object, subject) is recorded.
  // Before Finalize() this feeds the initial build; after Finalize() it
  // stages a *delta* that becomes visible at the next MergeDelta() call
  // (the read API keeps answering from the last packed state until then).
  void Add(TermId subject, RelId rel, TermId object);

  // Packs the accumulated statements into the columnar index. With a
  // non-null `pool`, the per-term and per-relation sorts are sharded across
  // the workers; the packed index is identical to a serial finalize.
  // `hooks` (optional) records "io" spans for the build sub-phases.
  void Finalize(util::ThreadPool* pool = nullptr, obs::Hooks hooks = {});
  bool finalized() const { return finalized_; }

  // True when statements were Add()ed (or relations interned) after
  // Finalize() and have not been merged yet.
  bool has_pending_delta() const {
    return finalized_ && (!pending_.empty() ||
                          terms_.size() > index_.num_terms() ||
                          rel_names_.size() > index_.num_relations());
  }

  // What one MergeDelta() changed: exactly the terms that gained statements
  // — already-present delta statements are dropped and contribute nothing.
  // The list is sorted and deduplicated, so downstream consumers iterate it
  // in a canonical order regardless of ingest order.
  struct DeltaMergeResult {
    std::vector<TermId> touched_terms;
    size_t num_new_statements = 0;  // distinct novel triples (no inverses)
  };

  // Merges the statements staged since Finalize() into the packed index —
  // a linear splice of the small sorted delta into the touched CSR/POS
  // slices, not a rebuild; untouched slices are bulk-copied and the merged
  // index is byte-identical to a cold Finalize() over the union. Requires a
  // finalized store. Idempotent when nothing is staged (new relations with
  // no statements still get their empty POS ranges appended).
  DeltaMergeResult MergeDelta(util::ThreadPool* pool = nullptr,
                              obs::Hooks hooks = {});

  // ---- Read API (requires Finalize(); allocation-free) ----

  // Every statement `t` participates in, as (rel, other) with rel(t, other).
  // Sorted by (rel, other). Empty span if `t` is unknown to this ontology.
  std::span<const Fact> FactsAbout(TermId t) const;

  // The statements of `t` whose relation is exactly `rel` (`rel` may be
  // inverse): a binary search within `t`'s packed adjacency slice.
  std::span<const Fact> FactsAbout(TermId t, RelId rel) const;

  // The objects y with rel(t, y); `rel` may be inverse. Sorted. The span
  // points into the index's object column and stays valid for the store's
  // lifetime.
  std::span<const TermId> ObjectsOf(TermId t, RelId rel) const;

  // True if rel(s, o) is a statement of this store (rel may be inverse).
  bool Contains(TermId s, RelId rel, TermId o) const;

  // A resolved handle over one term's packed adjacency: the global→local
  // dictionary lookup happens once at `CursorFor`, so the fixpoint's inner
  // loops can issue many per-relation probes against the same term without
  // resolving its id again. All spans stay valid for the store's lifetime.
  class FactsCursor {
   public:
    FactsCursor() = default;

    // False when the term is unknown (every accessor then returns empty).
    bool valid() const { return index_ != nullptr; }

    std::span<const Fact> all() const {
      return valid() ? index_->FactsAbout(local_) : std::span<const Fact>{};
    }
    std::span<const Fact> FactsWith(RelId rel) const {
      return valid() ? index_->FactsWith(local_, rel)
                     : std::span<const Fact>{};
    }
    std::span<const TermId> ObjectsOf(RelId rel) const {
      return valid() ? index_->ObjectsOf(local_, rel)
                     : std::span<const TermId>{};
    }
    bool Contains(RelId rel, TermId other) const {
      return valid() && index_->Contains(local_, rel, other);
    }
    // Calls fn(rel, facts) once per distinct relation of the term, in
    // relation order, with the term's run of `rel` facts: a walk of its
    // relation directory that reads no fact and does not allocate.
    template <typename Fn>
    void ForEachRun(Fn&& fn) const {
      if (valid()) index_->ForEachRunOf(local_, fn);
    }

   private:
    friend class TripleStore;
    FactsCursor(const storage::ColumnarIndex* index, uint32_t local)
        : index_(index), local_(local) {}

    const storage::ColumnarIndex* index_ = nullptr;
    uint32_t local_ = 0;
  };

  // Resolves `t` once; invalid cursor if `t` is unknown to this ontology.
  FactsCursor CursorFor(TermId t) const;

  // Number of registered relations; valid positive ids are [1, count].
  size_t num_relations() const { return rel_names_.size(); }
  TermId relation_name(RelId rel) const {
    return rel_names_[static_cast<size_t>(BaseRel(rel)) - 1];
  }

  // Human-readable relation name; inverse relations get a "^-1" suffix.
  std::string RelationDebugName(RelId rel) const;

  // (first, second) pairs of `rel`, base direction only, sorted by
  // (first, second). For an inverse id the caller should swap the pair
  // components; `ForEachPair` does this. Empty for an id outside
  // ±[1, packed relations]: kNullRel, garbage, or a relation interned after
  // Finalize(), which has no packed range until the next MergeDelta().
  std::span<const TermPair> PairsOf(RelId rel) const {
    assert(finalized_);
    if (!IsPackedRel(rel)) return {};
    return index_.PairsOf(BaseRel(rel));
  }

  // Invokes fn(x, y) for every pair of `rel` (handling inversion), stopping
  // after `limit` pairs (0 = no limit).
  void ForEachPair(RelId rel, size_t limit,
                   const std::function<void(TermId, TermId)>& fn) const;

  // Number of statements of `rel` (same for the inverse).
  size_t PairCount(RelId rel) const { return PairsOf(rel).size(); }

  // Every term that appears in some statement of this store, in first-seen
  // order.
  const std::vector<TermId>& terms() const { return terms_; }

  bool ContainsTerm(TermId t) const { return Local(t) != kNoLocal; }

  // Total number of distinct statements (not counting inverses twice).
  size_t num_triples() const { return index_.num_triples(); }

  // The packed storage engine (benchmarks, snapshot deep-equality).
  const storage::ColumnarIndex& index() const { return index_; }

  // ---- Triple patterns (requires Finalize()) ----
  //
  // Every bound/variable/ignored combination is answered from the packed
  // index: a bound inverse relation -r swaps the subject and object slots,
  // then the bound positions pick one access path (the table in
  // src/paris/storage/README.md fixes each mask's reply order). Matches
  // are positive-relation statements with global term ids. A bound value
  // the store does not hold (an unknown term, a relation outside
  // ±[1, num_relations()]) matches nothing.
  //
  // A pattern with an ignored position reports it as kNullTerm / kNullRel,
  // collapses matches that differ only there, and replies sorted by
  // (subject, relation, object). Its `limit` applies after that collapse,
  // so it materializes its whole match range first; an ignore-free pattern
  // stops at `limit`.

  // Calls fn for each match, stopping after `limit` (0 = no limit).
  // Returns the number of matches emitted.
  size_t Scan(const storage::TriplePattern& pattern, size_t limit,
              const std::function<void(const Triple&)>& fn) const;
  std::vector<Triple> Collect(const storage::TriplePattern& pattern,
                              size_t limit = 0) const;
  // Number of matches: a span size or one slice's walk for an ignore-free
  // pattern, a counting scan otherwise.
  uint64_t Count(const storage::TriplePattern& pattern) const;

  // ---- Snapshot I/O (see src/storage/README.md) ----

  // Serializes the relation registry, term dictionary, and packed index as
  // one section. Requires a finalized store; term ids reference the pool,
  // which must be saved alongside (storage::SaveTermPool). The no-argument
  // form writes the current format version (v5, whose section is v4's:
  // CSR, POS pairs and the relation directory); `version` ==
  // storage::kMinSnapshotVersion writes a downlevel v2 section (CSR/POS
  // only). Those are the only two.
  void SaveTo(storage::SnapshotWriter& writer) const;
  void SaveTo(storage::SnapshotWriter& writer, uint32_t version) const;

  // Restores a finalized store whose term ids reference `pool` (already
  // loaded). Fails on structurally invalid or out-of-range data. With a
  // memory-backed reader (mmap'ed snapshot) the packed index columns
  // become zero-copy views into the mapping — only the dictionaries (the
  // relation-name map and the dense term array) and the derived object
  // column are materialized. `version` is the snapshot file's format
  // version, 2 to 5: v3 to v5 sections carry the relation directory
  // (adopted zero-copy), v2 sections get it rebuilt in memory. A v3
  // section also holds three sorted orderings of the triples after the
  // directory; they are read past, with their row counts checked against
  // the triple count. The two-argument form loads the current version.
  static util::StatusOr<TripleStore> LoadFrom(storage::SnapshotReader& reader,
                                              TermPool* pool);
  static util::StatusOr<TripleStore> LoadFrom(storage::SnapshotReader& reader,
                                              TermPool* pool,
                                              uint32_t version);

 private:
  static constexpr uint32_t kNoLocal = UINT32_MAX;

  // True when `rel` lies in ±[1, packed relations].
  bool IsPackedRel(RelId rel) const {
    const auto packed = static_cast<int64_t>(index_.num_relations());
    return rel != kNullRel && rel >= -packed && rel <= packed;
  }

  // Rewrites a bound inverse relation -r to r with the subject and object
  // slots swapped. False when the bound relation is not a packed id, so the
  // pattern matches nothing.
  bool Normalize(storage::TriplePattern* p) const;

  // Calls emit(triple) for each statement matching the bound positions of
  // `p` (normalized: any bound relation is a packed positive id), in the
  // mask's reply order, until emit returns false.
  template <typename Emit>
  void ForEachMatch(const storage::TriplePattern& p, Emit&& emit) const;

  // The dictionary probe: `t`'s local index, or kNoLocal when `t` is not in
  // this store. Bounds-checked, because the shared pool grows past the
  // array while another store ingests or a delta is staged.
  uint32_t Local(TermId t) const {
    return static_cast<size_t>(t) < local_index_.size() ? local_index_[t]
                                                        : kNoLocal;
  }
  // Local(t) for a term with a packed adjacency slice, else kNoLocal (terms
  // first seen by a staged, unmerged delta have none yet).
  uint32_t PackedLocal(TermId t) const {
    const uint32_t local = Local(t);
    return local < index_.num_terms() ? local : kNoLocal;
  }
  // Local(t), assigning the next local index (and growing the array) on
  // first sight.
  uint32_t LocalIndex(TermId t);

  TermPool* pool_;
  bool finalized_ = false;

  // Relation registry.
  std::vector<TermId> rel_names_;
  std::unordered_map<TermId, RelId> rel_index_;

  // Term dictionary: global term id ↔ dense local index, first-seen order.
  // `local_index_` is a dense array over the pool's term ids (kNoLocal for
  // terms this store never saw), so the lookup the fixpoint's inner loops
  // make per expanded fact is one bounds check and one load, not a hash
  // probe. It costs 4 bytes per pool term; `terms_` is its inverse.
  std::vector<uint32_t> local_index_;
  std::vector<TermId> terms_;

  // Ingest buffer; moved into the index by Finalize().
  std::vector<storage::ColumnarIndex::Entry> pending_;

  // The packed engine (empty until Finalize()).
  storage::ColumnarIndex index_;
};

}  // namespace paris::rdf

#endif  // PARIS_RDF_STORE_H_

#ifndef PARIS_STORAGE_COLUMNAR_INDEX_H_
#define PARIS_STORAGE_COLUMNAR_INDEX_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "paris/obs/hooks.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/column.h"

namespace paris::util {
class ThreadPool;
}  // namespace paris::util

namespace paris::storage {

// Immutable columnar index over the dictionary-encoded statements of one
// ontology — the storage engine behind `rdf::TripleStore`.
//
// Two permutations are packed:
//
//  * SPO (adjacency): a CSR layout keyed by dense local term index. One flat
//    `Fact` array sorted by (rel, other) within each term, plus an offset
//    array, so `FactsAbout` is a pure span lookup and `FactsWith`/`ObjectsOf`
//    are binary searches within one term's contiguous slice. Inverse
//    statements are materialized with negated relation ids, so the SPO
//    family subsumes OPS. A parallel object column (the `other` field of
//    each fact, stored contiguously) lets `ObjectsOf` return a
//    `std::span<const TermId>` without allocating.
//
//  * POS (pairs): per positive relation, its (first, second) pairs in one
//    flat array sorted by (first, second), with an offset per relation.
//
// Columns are either owned vectors (Build / streamed snapshot load) or
// read-only views into an mmap'ed snapshot (zero-copy load) — `keep_alive`
// pins the mapping for the index's lifetime. All spans point into the index
// and stay valid for its lifetime; every read accessor is allocation-free
// and safe to call from many threads.
class ColumnarIndex {
 public:
  // One half-statement during ingest: rel(owner, other) where `owner` is a
  // dense local term index and `rel` may be an inverse id.
  struct Entry {
    uint32_t owner;
    rdf::RelId rel;
    rdf::TermId other;

    friend bool operator==(const Entry& a, const Entry& b) = default;
  };

  // One row of the per-term relation directory: a term's distinct (possibly
  // inverse) relations in sorted order, each with the offset of its first
  // fact *within the term's adjacency slice* (u32 — a single term's degree
  // is bounded well below 2^32). `FactsWith` binary-searches these compact
  // rows instead of the term's full fact slice: O(log distinct-relations)
  // probes over 8-byte rows rather than O(log degree) over the fat slice,
  // which is what makes hub-heavy terms cheap in the fixpoint's inner
  // loops. Derived from the facts column (Build / MergeDelta / v2 load) or
  // adopted zero-copy from a v3/v4 snapshot.
  struct DirEntry {
    rdf::RelId rel;
    uint32_t begin;

    friend bool operator==(const DirEntry& a, const DirEntry& b) = default;
  };

  ColumnarIndex() = default;
  ColumnarIndex(ColumnarIndex&&) = default;
  ColumnarIndex& operator=(ColumnarIndex&&) = default;
  ColumnarIndex(const ColumnarIndex&) = delete;
  ColumnarIndex& operator=(const ColumnarIndex&) = delete;

  // Packs the index. `terms` maps local index → global term id (used to emit
  // POS pairs); every entry's `owner` must be < terms.size() and every
  // positive |rel| must be ≤ num_relations. Duplicate entries are removed (a
  // store is a *set* of statements). With a non-null `pool`, the dominant
  // per-term slice sorts and per-relation pair sorts are sharded across the
  // workers; the packed result is identical to a serial build. `hooks`
  // (optional) records one "io" span per build sub-phase — bucket sort,
  // slice sort+dedup, column fill, pair packing — on the calling thread.
  static ColumnarIndex Build(std::span<const rdf::TermId> terms,
                             size_t num_relations,
                             std::vector<Entry>&& entries,
                             util::ThreadPool* pool = nullptr,
                             obs::Hooks hooks = {});

  // Merges a small batch of new entries into an already-packed index without
  // rebuilding it: per-term adjacency slices and per-relation pair ranges
  // that the delta does not touch are copied wholesale, touched slices are
  // linearly merged with the (sorted, deduplicated) delta. `terms` and
  // `num_relations` are the *updated* dictionary and relation registry —
  // both may have grown since Build; new terms get (possibly empty) fresh
  // slices appended and new relations get fresh pair ranges. Entries already
  // present in the index are dropped (a store is a set of statements).
  // After the merge every column is owned (zero-copy views are detached).
  //
  // Returns the kept entries — the novel, deduplicated delta — sorted by
  // (owner, rel, other), so the caller can derive exactly which terms and
  // relations changed. The merged index is byte-identical to a full
  // Build() over the union of the original entries and the delta.
  std::vector<Entry> MergeDelta(std::span<const rdf::TermId> terms,
                                size_t num_relations,
                                std::vector<Entry>&& entries,
                                util::ThreadPool* pool = nullptr,
                                obs::Hooks hooks = {});

  // Reassembles an index from raw columns (streamed snapshot load). Returns
  // false — leaving `out` untouched — if the columns are structurally
  // inconsistent (non-monotone offsets, unsorted or duplicate rows,
  // out-of-range ids).
  static bool FromColumns(std::vector<uint64_t> offsets,
                          std::vector<rdf::Fact> facts,
                          std::vector<uint64_t> pair_offsets,
                          std::vector<rdf::TermPair> pairs, ColumnarIndex* out);

  // Column-based core: each column is either owned (streamed load) or a
  // zero-copy view into externally owned bytes (an mmap'ed snapshot), in
  // which case `keep_alive` pins the owner of the viewed bytes (the file
  // mapping) for the index's lifetime. The derived object column is always
  // materialized in memory. On failure `out` is untouched.
  static bool FromColumns(Column<uint64_t> offsets, Column<rdf::Fact> facts,
                          Column<uint64_t> pair_offsets,
                          Column<rdf::TermPair> pairs,
                          std::shared_ptr<const void> keep_alive,
                          ColumnarIndex* out);

  // Snapshot-v3/v4 variant: the relation directory comes from the file (and
  // stays zero-copy under an mmap'ed reader) instead of being rebuilt.
  // The directory is validated exactly against the facts column; a
  // mismatch fails the load.
  static bool FromColumns(Column<uint64_t> offsets, Column<rdf::Fact> facts,
                          Column<uint64_t> pair_offsets,
                          Column<rdf::TermPair> pairs,
                          Column<uint64_t> dir_offsets, Column<DirEntry> dir,
                          std::shared_ptr<const void> keep_alive,
                          ColumnarIndex* out);

  // ---- Read API (all O(1) or O(log degree), zero allocation) ----

  // Every statement the term participates in, sorted by (rel, other).
  std::span<const rdf::Fact> FactsAbout(uint32_t local) const {
    return {facts_.data() + offsets_[local],
            facts_.data() + offsets_[local + 1]};
  }

  // The facts of `local` whose relation is exactly `rel`: a binary search
  // over the term's relation-directory rows. Empty (data() == nullptr)
  // when the term has no `rel` facts.
  std::span<const rdf::Fact> FactsWith(uint32_t local, rdf::RelId rel) const;

  // The objects y with rel(term, y), as a contiguous sorted id column.
  std::span<const rdf::TermId> ObjectsOf(uint32_t local, rdf::RelId rel) const;

  // True if rel(term, other) is a statement.
  bool Contains(uint32_t local, rdf::RelId rel, rdf::TermId other) const;

  // Calls fn(rel, n) once per relation-directory row: terms in local order,
  // each term's rows in relation order, where n ≥ 1 is the number of facts
  // of `rel` that the term holds. One linear pass over the directory, no
  // allocation, no fact read.
  template <typename Fn>
  void ForEachRun(Fn&& fn) const {
    for (size_t t = 0; t < num_terms(); ++t) {
      const DirEntry* hi = dir_.data() + dir_offsets_[t + 1];
      for (const DirEntry* row = dir_.data() + dir_offsets_[t]; row != hi;
           ++row) {
        fn(row->rel, RunEnd(t, row, hi) - row->begin);
      }
    }
  }

  // Calls fn(rel, facts) once per relation-directory row of term `local`,
  // in relation order, where `facts` is the term's run of `rel` facts. The
  // run's bounds come from the directory and the offsets: no fact is read
  // and nothing allocates.
  template <typename Fn>
  void ForEachRunOf(uint32_t local, Fn&& fn) const {
    const rdf::Fact* slice = facts_.data() + offsets_[local];
    const DirEntry* hi = dir_.data() + dir_offsets_[local + 1];
    for (const DirEntry* row = dir_.data() + dir_offsets_[local]; row != hi;
         ++row) {
      fn(row->rel, std::span<const rdf::Fact>(
                       slice + row->begin, slice + RunEnd(local, row, hi)));
    }
  }

  // (first, second) pairs of positive relation `base` in [1, num_relations],
  // sorted by (first, second).
  std::span<const rdf::TermPair> PairsOf(rdf::RelId base) const {
    const auto b = static_cast<size_t>(base);
    return {pairs_.data() + pair_offsets_[b - 1],
            pairs_.data() + pair_offsets_[b]};
  }

  size_t num_terms() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }
  size_t num_relations() const {
    return pair_offsets_.empty() ? 0 : pair_offsets_.size() - 1;
  }
  // Adjacency rows (each statement appears twice: forward and inverse).
  size_t num_facts() const { return facts_.size(); }
  // Distinct statements (inverses not double-counted).
  size_t num_triples() const { return pairs_.size(); }

  // True when the packed columns alias an mmap'ed snapshot.
  bool zero_copy() const { return keep_alive_ != nullptr; }

  // ---- Raw columns (snapshot save, deep-equality in tests) ----

  std::span<const uint64_t> offsets() const { return offsets_.span(); }
  std::span<const rdf::Fact> facts() const { return facts_.span(); }
  std::span<const rdf::TermId> objects() const { return objects_.span(); }
  std::span<const uint64_t> pair_offsets() const {
    return pair_offsets_.span();
  }
  std::span<const rdf::TermPair> pairs() const { return pairs_.span(); }
  std::span<const uint64_t> dir_offsets() const { return dir_offsets_.span(); }
  std::span<const DirEntry> dir() const { return dir_.span(); }

 private:
  // Where the run of directory row `row` ends, relative to the start of
  // term `local`'s slice: at the next row's begin, or at the end of the
  // slice for the term's last row (`hi` is one past that row).
  uint64_t RunEnd(size_t local, const DirEntry* row,
                  const DirEntry* hi) const {
    return row + 1 == hi ? offsets_[local + 1] - offsets_[local]
                         : (row + 1)->begin;
  }

  static bool Validate(std::span<const uint64_t> offsets,
                       std::span<const rdf::Fact> facts,
                       std::span<const uint64_t> pair_offsets,
                       std::span<const rdf::TermPair> pairs);
  static bool ValidateDirectory(std::span<const uint64_t> offsets,
                                std::span<const rdf::Fact> facts,
                                std::span<const uint64_t> dir_offsets,
                                std::span<const DirEntry> dir);
  void RebuildObjectColumn();
  void RebuildDirectory(util::ThreadPool* pool = nullptr);

  Column<uint64_t> offsets_;        // num_terms + 1
  Column<rdf::Fact> facts_;         // CSR adjacency rows
  Column<rdf::TermId> objects_;     // objects_[i] == facts_[i].other
  Column<uint64_t> pair_offsets_;   // num_relations + 1
  Column<rdf::TermPair> pairs_;     // POS rows
  Column<uint64_t> dir_offsets_;    // num_terms + 1
  Column<DirEntry> dir_;            // per-term distinct-relation rows
  std::shared_ptr<const void> keep_alive_;  // mapping owner for view columns
};

}  // namespace paris::storage

#endif  // PARIS_STORAGE_COLUMNAR_INDEX_H_

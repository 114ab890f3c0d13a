#ifndef PARIS_ONTOLOGY_ONTOLOGY_H_
#define PARIS_ONTOLOGY_ONTOLOGY_H_

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "paris/ontology/functionality.h"
#include "paris/ontology/packed_term_map.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/util/status.h"

namespace paris::storage {
class SnapshotReader;
class SnapshotWriter;
}  // namespace paris::storage

namespace paris::util {
class ThreadPool;
}  // namespace paris::util

namespace paris::ontology {

class Ontology;

// Snapshot section I/O (src/ontology/snapshot.h); friends of Ontology.
// `version` is the snapshot file's format version, steering how the packed
// triple store section is written / interpreted.
void SaveOntologySection(const Ontology& onto, storage::SnapshotWriter& writer,
                         uint32_t version);
util::StatusOr<Ontology> LoadOntologySection(storage::SnapshotReader& reader,
                                             rdf::TermPool* pool,
                                             uint32_t version);

// An RDFS ontology in the paper's sense (§3): a finalized set of statements
// over a shared term pool, with
//   * resources partitioned into classes and instances,
//   * the rdf:type / rdfs:subClassOf / rdfs:subPropertyOf statements
//     materialized to their deductive closure,
//   * all inverse statements materialized (via signed relation ids), and
//   * global functionalities precomputed for every signed relation.
//
// Built exclusively through `OntologyBuilder`. Immutable while alignment
// passes read it from many threads; between runs, `ApplyDelta` may merge a
// batch of new statements in place (no concurrent readers allowed during
// the merge).
class Ontology {
 public:
  Ontology(const Ontology&) = delete;
  Ontology& operator=(const Ontology&) = delete;
  Ontology(Ontology&&) = default;
  Ontology& operator=(Ontology&&) = default;

  const std::string& name() const { return name_; }
  rdf::TermPool& pool() const { return store_.pool(); }
  const rdf::TripleStore& store() const { return store_; }

  // ---- Partition (§3) ----

  // Instances in first-seen order. Every id is an IRI term.
  const std::vector<rdf::TermId>& instances() const { return instances_; }
  // Classes in first-seen order.
  const std::vector<rdf::TermId>& classes() const { return classes_; }

  bool IsClassTerm(rdf::TermId t) const { return class_set_.contains(t); }
  bool IsInstanceTerm(rdf::TermId t) const {
    return InstancePosition(t) != kNoInstance;
  }

  // Position of `t` in instances(), or kNoInstance when `t` is not an
  // instance of this ontology. One bounds check and one load: the instance
  // pass resolves every neighbour of an expanded fact through it.
  static constexpr uint32_t kNoInstance = UINT32_MAX;
  uint32_t InstancePosition(rdf::TermId t) const {
    return static_cast<size_t>(t) < instance_position_.size()
               ? instance_position_[t]
               : kNoInstance;
  }

  // ---- Types (deductively closed) ----

  // All classes `instance` belongs to (direct types plus superclasses).
  // Sorted. Served from a packed CSR index (one hash + one probe, no
  // bucket-pointer chase) — the class pass hits this for every candidate
  // instance in its inner loop.
  std::span<const rdf::TermId> ClassesOf(rdf::TermId instance) const {
    return packed_classes_of_.Get(instance);
  }
  // All instances of `cls` (including instances of subclasses). Sorted.
  std::span<const rdf::TermId> InstancesOf(rdf::TermId cls) const {
    return packed_instances_of_.Get(cls);
  }

  // ---- Class hierarchy ----

  // Direct rdfs:subClassOf edges out of `cls` (transitively closed at build).
  std::span<const rdf::TermId> SuperClassesOf(rdf::TermId cls) const;
  bool IsSubClassOf(rdf::TermId sub, rdf::TermId super) const;

  // ---- Facts & functionality ----

  // Statements `t` participates in (regular relations only; schema
  // statements live in the indexes above).
  std::span<const rdf::Fact> FactsAbout(rdf::TermId t) const {
    return store_.FactsAbout(t);
  }

  // The statements of `t` with relation exactly `rel` (may be inverse):
  // a binary search within `t`'s packed adjacency slice.
  std::span<const rdf::Fact> FactsAbout(rdf::TermId t, rdf::RelId rel) const {
    return store_.FactsAbout(t, rel);
  }

  // The objects y with rel(t, y), as a sorted span into the store's object
  // column (no allocation).
  std::span<const rdf::TermId> ObjectsOf(rdf::TermId t, rdf::RelId rel) const {
    return store_.ObjectsOf(t, rel);
  }

  const FunctionalityTable& functionality() const { return *functionality_; }
  double Fun(rdf::RelId rel) const { return functionality_->Global(rel); }
  double FunInverse(rdf::RelId rel) const {
    return functionality_->GlobalInverse(rel);
  }

  size_t num_relations() const { return store_.num_relations(); }
  size_t num_triples() const { return store_.num_triples(); }

  // ---- Delta ingestion ----

  // What one ApplyDelta changed. Every list is sorted and deduplicated, so
  // downstream consumers (the incremental aligner's seed worklist) iterate
  // in a canonical order independent of delta file order.
  struct DeltaSummary {
    // Terms that gained statements or types (includes literal objects).
    std::vector<rdf::TermId> touched_terms;
    // Instance terms first seen by this delta.
    std::vector<rdf::TermId> new_instances;
    // Distinct novel statements (duplicates of existing facts are dropped).
    size_t num_new_statements = 0;
  };

  // Merges a batch of new statements into the built ontology: regular facts
  // and rdf:type statements only. Schema deltas (rdfs:subClassOf /
  // rdfs:subPropertyOf) are rejected with InvalidArgument — they would
  // invalidate the precomputed closures — as are statements that move a
  // term across the class/instance partition. The caller must supply the
  // delta in its deductive closure w.r.t. rdfs:subPropertyOf (facts are
  // recorded exactly as given); rdf:type statements are closed under the
  // existing subclass hierarchy here. The store merge is an in-place splice
  // of the touched CSR/POS slices (rdf/store.h MergeDelta), after which the
  // functionality table is recounted from the merged store's relation
  // directory. On error the ontology is unchanged.
  util::StatusOr<DeltaSummary> ApplyDelta(
      std::span<const rdf::ParsedTriple> triples,
      util::ThreadPool* thread_pool = nullptr, obs::Hooks hooks = {});

  std::string TermName(rdf::TermId t) const {
    return std::string(pool().lexical(t));
  }
  std::string RelationName(rdf::RelId rel) const {
    return store_.RelationDebugName(rel);
  }

 private:
  friend class OntologyBuilder;
  friend void SaveOntologySection(const Ontology& onto,
                                  storage::SnapshotWriter& writer,
                                  uint32_t version);
  friend util::StatusOr<Ontology> LoadOntologySection(
      storage::SnapshotReader& reader, rdf::TermPool* pool, uint32_t version);
  explicit Ontology(rdf::TermPool* pool) : store_(pool) {}

  // Re-derives the packed type indexes from classes_of_ / instances_of_.
  // Must run after anything that mutates those maps (build, load, delta).
  void RepackTypeIndexes();

  // Appends `t` to instances() unless it already is one; true if appended.
  // Grows instance_position_ to the pool, which may have outgrown it.
  bool AddInstance(rdf::TermId t);

  std::string name_;
  rdf::TripleStore store_;

  std::vector<rdf::TermId> instances_;
  std::vector<rdf::TermId> classes_;
  // The inverse of instances_: a dense array over the pool's term ids
  // holding each instance's position (kNoInstance elsewhere), 4 bytes per
  // pool term. Ids past its end, interned after it last grew, are not
  // instances.
  std::vector<uint32_t> instance_position_;
  std::unordered_set<rdf::TermId> class_set_;

  // Closed type indexes (source of truth; mutated by ApplyDelta).
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> classes_of_;
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> instances_of_;
  // Read-optimized packed forms of the two maps above; ClassesOf /
  // InstancesOf serve from these.
  PackedTermMap packed_classes_of_;
  PackedTermMap packed_instances_of_;
  // Transitively closed subclass edges (excluding self).
  std::unordered_map<rdf::TermId, std::vector<rdf::TermId>> superclasses_;

  std::unique_ptr<FunctionalityTable> functionality_;
};

// Accumulates statements (programmatically or as an N-Triples sink), then
// `Build()`s an immutable `Ontology`:
//   1. computes the rdfs:subPropertyOf closure and copies implied facts,
//   2. computes the rdfs:subClassOf closure and closes rdf:type under it,
//   3. partitions resources into classes and instances,
//   4. finalizes the triple store and precomputes functionalities.
class OntologyBuilder : public rdf::TripleSink {
 public:
  OntologyBuilder(rdf::TermPool* pool, std::string name)
      : pool_(pool), name_(std::move(name)) {}

  // Regular statement relation(subject, object-IRI).
  void AddFact(std::string_view subject, std::string_view relation,
               std::string_view object_iri);
  // Regular statement relation(subject, "literal").
  void AddLiteralFact(std::string_view subject, std::string_view relation,
                      std::string_view literal);
  // rdf:type(instance, cls).
  void AddType(std::string_view instance, std::string_view cls);
  // rdfs:subClassOf(sub, super).
  void AddSubClassOf(std::string_view sub, std::string_view super);
  // rdfs:subPropertyOf(sub, super).
  void AddSubPropertyOf(std::string_view sub, std::string_view super);

  // rdf::TripleSink: dispatches on well-known predicates (vocab.h). A
  // literal in a schema position (e.g. as the object of rdf:type) is
  // recorded as an error and reported by Build().
  void OnTriple(const rdf::ParsedTriple& triple) override;

  size_t num_pending_facts() const { return facts_.size(); }

  // Consumes the builder. Returns an error if the accumulated statements
  // violate the model (e.g., a literal used as a class). With a non-null
  // `pool`, the triple-store finalize (the dominant build phase on large
  // ontologies) shards its sorts across the workers. `hooks` (optional)
  // records "io" spans for the finalize and functionality phases.
  util::StatusOr<Ontology> Build(util::ThreadPool* pool = nullptr,
                                 obs::Hooks hooks = {});

 private:
  struct RawFact {
    rdf::TermId subject;
    rdf::TermId relation_name;
    rdf::TermId object;
  };

  rdf::TermPool* pool_;
  std::string name_;
  util::Status first_error_;
  std::vector<RawFact> facts_;
  std::vector<rdf::TermPair> type_edges_;      // (instance, class)
  std::vector<rdf::TermPair> subclass_edges_;  // (sub, super)
  std::vector<rdf::TermPair> subprop_edges_;   // (sub, super)
};

// Convenience: parse an N-Triples document into an ontology.
util::StatusOr<Ontology> LoadOntologyFromNTriples(rdf::TermPool* pool,
                                                  std::string name,
                                                  std::string_view document);

}  // namespace paris::ontology

#endif  // PARIS_ONTOLOGY_ONTOLOGY_H_

#ifndef PARIS_ONTOLOGY_SNAPSHOT_H_
#define PARIS_ONTOLOGY_SNAPSHOT_H_

#include <string>

#include "paris/ontology/ontology.h"
#include "paris/rdf/term.h"
#include "paris/storage/snapshot.h"
#include "paris/util/status.h"

namespace paris::ontology {

// Ontology-level snapshot persistence on top of the storage-layer binary
// format (src/storage/snapshot.h). A snapshot file holds the shared term
// pool, both ontologies of an alignment run (name, packed triple store,
// class/instance partition, closed type and subclass indexes), and a
// checksum trailer. Functionality tables are counted on load from the
// store's relation directory — they are a deterministic function of it.
//
// `SaveOntologySection` / `LoadOntologySection` (declared in ontology.h as
// friends) write one ontology; the functions below frame a whole file.

// Both ontologies must share one term pool (the normal alignment setup).
// `version` selects the format version to write: storage::kSnapshotVersion,
// or the downlevel storage::kMinSnapshotVersion that compatibility tests
// write. Any other version is InvalidArgument.
util::Status SaveAlignmentSnapshot(const std::string& path,
                                   const Ontology& left, const Ontology& right,
                                   uint32_t version = storage::kSnapshotVersion);

struct AlignmentSnapshot {
  Ontology left;
  Ontology right;
};

// How `LoadAlignmentSnapshot` brings the file in. In `kMmap` the packed
// index columns alias the mapping, which the loaded ontologies keep alive.
using SnapshotLoadMode = storage::SnapshotLoadMode;

// Loads a snapshot into the (empty) `pool`. On failure the pool's contents
// are unspecified — use a fresh pool per attempt. Rejects files with a bad
// magic/version, structurally invalid sections, or a checksum mismatch
// (corruption / truncation); the mmap path verifies the whole-file checksum
// *before* adopting any view (checksum-before-map).
util::StatusOr<AlignmentSnapshot> LoadAlignmentSnapshot(
    const std::string& path, rdf::TermPool* pool,
    SnapshotLoadMode mode = SnapshotLoadMode::kAuto);

}  // namespace paris::ontology

#endif  // PARIS_ONTOLOGY_SNAPSHOT_H_

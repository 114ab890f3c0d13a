#ifndef PARIS_CORE_RESULT_SNAPSHOT_H_
#define PARIS_CORE_RESULT_SNAPSHOT_H_

#include <cstdint>
#include <span>
#include <string>

#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/storage/snapshot.h"
#include "paris/util/status.h"

namespace paris::core {

// Versioned binary snapshot of an `AlignmentResult` — the alignment
// *output* state, as opposed to the ontology snapshots of
// src/ontology/snapshot.h which persist the *input*. Saving the result
// after iteration k and loading it into `Aligner::Resume` continues the
// fixpoint at iteration k+1 with final state identical to an uninterrupted
// run (`paris_align --save-result/--resume-from`).
//
// File layout (storage::SnapshotWriter framing; scalars little-endian, POD
// arrays 8-byte aligned, FNV-1a trailer):
//
//   magic    "PARISRS\n"
//   version  u32 (currently 2)
//   key      ontology-pair fingerprint u64, matcher name, and every
//            trajectory-shaping AlignmentConfig field
//   run      iteration records (index, wall times, change fraction,
//            aligned count), converged_at, class/total seconds
//   tables   instance equivalences (sorted keys + CSR offsets + candidate
//            columns), relation scores (sorted packed keys + scores, both
//            directions, bootstrap state), class scores (entry columns)
//   partial  u8 present flag; when set, the mid-iteration checkpoint of a
//            shard-level cancel (v2): interrupted iteration + pass, shard
//            count, the completed shards' ids and opaque payloads, and —
//            for a relation-pass cancel — the iteration's instance
//            equivalences
//   trailer  u64 FNV-1a checksum of every byte after the magic
//
// Everything map-shaped is serialized in sorted key order, so identical
// results produce byte-identical files. Per-iteration history snapshots
// (`IterationRecord::instances/relations`) are NOT serialized —
// they feed the experiment tables, not the fixpoint; a resumed run carries
// the scalar records of the completed iterations only.
//
// The key section makes resuming under a different setup fail loudly:
// loading verifies the stored matcher, config fields, and ontology
// fingerprint against the caller's. `num_threads`, `num_shards`,
// `record_history`, and `max_iterations` are deliberately excluded —
// resuming on different hardware or with a raised iteration cap is the
// point of the snapshot (a different `num_shards` merely drops the partial
// section's cached shards; results are unaffected).

inline constexpr char kResultSnapshotMagic[8] = {'P', 'A', 'R', 'I',
                                                 'S', 'R', 'S', '\n'};
inline constexpr uint32_t kResultSnapshotVersion = 2;

// Cheap identity of the ontology pair a result belongs to: FNV-1a over the
// shared pool size and both sides' name, triple/relation/instance/class
// counts, and relation names. Not a content checksum — it detects "resumed
// against the wrong dataset", not bit rot (the input snapshot's own
// checksum covers that).
uint64_t OntologyPairFingerprint(const ontology::Ontology& left,
                                 const ontology::Ontology& right);

// Writes `result` to `path` via util::AtomicFileWriter: a crash at any
// instant leaves either the complete previous file or the complete new one.
// `config` must be the resolved config the run used (`Aligner::config()`,
// after instance_threshold resolution), and `matcher` the literal-matcher
// name; both are stored for the resume-time compatibility check.
util::Status SaveAlignmentResult(const std::string& path,
                                 const AlignmentResult& result,
                                 const ontology::Ontology& left,
                                 const ontology::Ontology& right,
                                 const AlignmentConfig& config,
                                 const std::string& matcher);

// A non-owning view of the state a result snapshot serializes. This is the
// capture path of the periodic background checkpointer: the aligner points
// the view at its live tables (under the serialized shard gate, where they
// are stable) and serializes without copying any of them — in particular
// no `IterationRecord` history maps are touched (only scalar fields are
// serialized, exactly as SaveAlignmentResult does).
struct ResultSnapshotView {
  std::span<const IterationRecord> iterations;  // completed iterations
  int converged_at = -1;
  double seconds_classes = 0.0;
  double seconds_total = 0.0;
  const InstanceEquivalences* instances = nullptr;  // required
  const RelationScores* relations = nullptr;        // required
  const ClassScores* classes = nullptr;             // nullptr = empty
  // Mirrors AlignmentResult::partial (the mid-iteration section).
  bool has_partial = false;
  int partial_iteration = 0;
  int partial_pass = 0;
  uint32_t partial_num_shards = 0;
  std::span<const uint32_t> partial_shards;
  std::span<const std::string> partial_payloads;
  // Required when partial_pass == kRelationPass.
  const InstanceEquivalences* partial_instances = nullptr;
};

// Serializes one complete result-snapshot file (magic through checksum
// trailer) into memory. The returned bytes are exactly what
// SaveAlignmentResult would have written; LoadAlignmentResult accepts them
// byte-identically. Used by the checkpointer so the (slow, fsync'd) file
// write happens on a background thread while the run moves on.
std::string SerializeAlignmentResult(const ResultSnapshotView& view,
                                     const ontology::Ontology& left,
                                     const ontology::Ontology& right,
                                     const AlignmentConfig& config,
                                     const std::string& matcher);

// Loads a result snapshot for resumption against the given ontology pair
// and run setup. Rejects files with a bad magic/version, a checksum
// mismatch (corruption / truncation), structurally invalid sections, a
// key section that does not match `left`/`right`/`config`/`matcher`, or
// more completed iterations than `config.max_iterations` allows (a resume
// cannot un-run iterations). The mmap path verifies the whole-file
// checksum before adopting any view (checksum-before-map, like the
// ontology snapshots); either way the returned result owns all its memory
// — no view outlives the load.
util::StatusOr<AlignmentResult> LoadAlignmentResult(
    const std::string& path, const ontology::Ontology& left,
    const ontology::Ontology& right, const AlignmentConfig& config,
    const std::string& matcher,
    storage::SnapshotLoadMode mode = storage::SnapshotLoadMode::kAuto);

}  // namespace paris::core

#endif  // PARIS_CORE_RESULT_SNAPSHOT_H_

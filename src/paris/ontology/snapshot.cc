#include "paris/ontology/snapshot.h"

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <optional>
#include <utility>
#include <vector>

#include "paris/ontology/functionality.h"
#include "paris/storage/snapshot.h"
#include "paris/util/fs.h"

namespace paris::ontology {

namespace {

using TermVectorMap =
    std::unordered_map<rdf::TermId, std::vector<rdf::TermId>>;

// Maps are written in sorted key order so identical ontologies always
// produce byte-identical snapshots.
void SaveTermVectorMap(const TermVectorMap& map,
                       storage::SnapshotWriter& writer) {
  std::vector<rdf::TermId> keys;
  keys.reserve(map.size());
  for (const auto& [key, values] : map) keys.push_back(key);
  std::sort(keys.begin(), keys.end());
  writer.WriteU64(keys.size());
  for (rdf::TermId key : keys) {
    writer.WriteU32(key);
    writer.WritePodVector(map.at(key));
  }
}

bool LoadTermVectorMap(storage::SnapshotReader& reader, size_t pool_size,
                       TermVectorMap* out) {
  const uint64_t count = reader.ReadU64();
  // Don't trust `count` for an upfront reservation — on a corrupt file it
  // can be arbitrary; entries are validated (and the map grown) one by one.
  out->reserve(std::min<uint64_t>(count, 1 << 16));
  for (uint64_t i = 0; i < count; ++i) {
    const rdf::TermId key = reader.ReadU32();
    std::vector<rdf::TermId> values;
    if (!reader.ReadPodVector(&values)) return false;
    if (static_cast<size_t>(key) >= pool_size) return false;
    for (rdf::TermId v : values) {
      if (static_cast<size_t>(v) >= pool_size) return false;
    }
    if (!out->emplace(key, std::move(values)).second) return false;
  }
  return reader.ok();
}

bool TermsInRange(const std::vector<rdf::TermId>& terms, size_t pool_size) {
  return std::all_of(terms.begin(), terms.end(), [pool_size](rdf::TermId t) {
    return static_cast<size_t>(t) < pool_size;
  });
}

}  // namespace

void SaveOntologySection(const Ontology& onto, storage::SnapshotWriter& writer,
                         uint32_t version) {
  writer.WriteString(onto.name_);
  onto.store_.SaveTo(writer, version);
  writer.WritePodVector(onto.instances_);
  writer.WritePodVector(onto.classes_);
  SaveTermVectorMap(onto.classes_of_, writer);
  SaveTermVectorMap(onto.superclasses_, writer);
}

util::StatusOr<Ontology> LoadOntologySection(storage::SnapshotReader& reader,
                                             rdf::TermPool* pool,
                                             uint32_t version) {
  Ontology onto(pool);
  onto.name_ = reader.ReadString();
  auto store = rdf::TripleStore::LoadFrom(reader, pool, version);
  if (!store.ok()) return store.status();
  onto.store_ = std::move(store).value();
  const size_t pool_size = pool->size();
  if (!reader.ReadPodVector(&onto.instances_) ||
      !reader.ReadPodVector(&onto.classes_) ||
      !LoadTermVectorMap(reader, pool_size, &onto.classes_of_) ||
      !LoadTermVectorMap(reader, pool_size, &onto.superclasses_)) {
    return util::DataLossError("truncated ontology section");
  }
  if (!TermsInRange(onto.instances_, pool_size) ||
      !TermsInRange(onto.classes_, pool_size)) {
    return util::DataLossError("ontology term id out of pool range");
  }

  // Derived structures: the instance positions, the class set, the
  // inverted type index, and functionalities (all deterministic functions
  // of the serialized state, mirroring OntologyBuilder::Build()). The
  // instance ids were range-checked above, so the dense writes stay in
  // bounds.
  onto.instance_position_.assign(pool_size, Ontology::kNoInstance);
  for (size_t i = 0; i < onto.instances_.size(); ++i) {
    uint32_t& position = onto.instance_position_[onto.instances_[i]];
    if (position != Ontology::kNoInstance) {
      return util::DataLossError("duplicate instance in snapshot");
    }
    position = static_cast<uint32_t>(i);
  }
  onto.class_set_.reserve(onto.classes_.size());
  for (rdf::TermId t : onto.classes_) {
    if (!onto.class_set_.insert(t).second) {
      return util::DataLossError("duplicate class in snapshot");
    }
  }
  for (const auto& [instance, classes] : onto.classes_of_) {
    for (rdf::TermId c : classes) {
      onto.instances_of_[c].push_back(instance);
    }
  }
  for (auto& [cls, members] : onto.instances_of_) {
    std::sort(members.begin(), members.end());
  }
  onto.RepackTypeIndexes();
  onto.functionality_ = std::make_unique<FunctionalityTable>(onto.store_);
  return onto;
}

util::Status SaveAlignmentSnapshot(const std::string& path,
                                   const Ontology& left, const Ontology& right,
                                   uint32_t version) {
  if (&left.pool() != &right.pool()) {
    return util::InvalidArgumentError(
        "snapshot requires both ontologies to share one term pool");
  }
  if (version != storage::kMinSnapshotVersion &&
      version != storage::kSnapshotVersion) {
    return util::InvalidArgumentError("unsupported snapshot write version");
  }
  // Staged through AtomicFileWriter: a crash (or write error) at any point
  // leaves the previous snapshot at `path` intact.
  util::AtomicFileWriter out(path);
  storage::SnapshotWriter writer(out.stream());
  storage::WriteSnapshotHeader(writer, out.stream(), version);
  storage::SaveTermPool(left.pool(), writer);
  SaveOntologySection(left, writer, version);
  SaveOntologySection(right, writer, version);
  const uint64_t checksum = writer.checksum();
  writer.WriteU64(checksum);
  return out.Commit();
}

namespace {

// The two sections behind the header; shared by the streaming and mmap
// paths (the reader's mode steers copy vs. zero-copy column loads).
util::StatusOr<AlignmentSnapshot> LoadSections(storage::SnapshotReader& reader,
                                               rdf::TermPool* pool,
                                               uint32_t file_version) {
  util::Status status = storage::LoadTermPool(reader, pool);
  if (!status.ok()) return status;
  auto left = LoadOntologySection(reader, pool, file_version);
  if (!left.ok()) return left.status();
  auto right = LoadOntologySection(reader, pool, file_version);
  if (!right.ok()) return right.status();
  return AlignmentSnapshot{std::move(left).value(), std::move(right).value()};
}

}  // namespace

util::StatusOr<AlignmentSnapshot> LoadAlignmentSnapshot(
    const std::string& path, rdf::TermPool* pool, SnapshotLoadMode mode) {
  std::optional<AlignmentSnapshot> out;
  util::Status status = storage::LoadSnapshotFile(
      path, mode, storage::kSnapshotMagic, storage::kMinSnapshotVersion,
      storage::kSnapshotVersion, "snapshot",
      [&](storage::SnapshotReader& reader, uint32_t file_version) {
        auto sections = LoadSections(reader, pool, file_version);
        if (!sections.ok()) return sections.status();
        out.emplace(std::move(sections).value());
        return util::OkStatus();
      });
  if (!status.ok()) return status;
  return std::move(*out);
}

}  // namespace paris::ontology

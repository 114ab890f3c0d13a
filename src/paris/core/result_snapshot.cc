#include "paris/core/result_snapshot.h"

#include <algorithm>
#include <bit>
#include <cstddef>
#include <optional>
#include <sstream>
#include <utility>
#include <vector>

#include "paris/storage/column.h"
#include "paris/util/fs.h"

namespace paris::core {

namespace {

// Upper bound on serialized iteration records; the fixpoint converges in a
// handful, so anything larger is a corrupt count.
constexpr uint64_t kMaxIterations = 1 << 20;

// Upper bound on a partial checkpoint's shard count (ShardLayout caps the
// shard count at the item count, but the file is untrusted and the count
// sizes two reserve() calls before any per-shard validation).
constexpr uint64_t kMaxShards = 1 << 20;

void AppendU64(std::string* buf, uint64_t v) {
  for (int i = 0; i < 8; ++i) buf->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendString(std::string* buf, std::string_view s) {
  AppendU64(buf, s.size());
  buf->append(s);
}

}  // namespace

uint64_t OntologyPairFingerprint(const ontology::Ontology& left,
                                 const ontology::Ontology& right) {
  std::string buf;
  AppendU64(&buf, left.pool().size());
  for (const ontology::Ontology* onto : {&left, &right}) {
    AppendString(&buf, onto->name());
    AppendU64(&buf, onto->num_triples());
    AppendU64(&buf, onto->num_relations());
    AppendU64(&buf, onto->instances().size());
    AppendU64(&buf, onto->classes().size());
    for (rdf::RelId r = 1;
         r <= static_cast<rdf::RelId>(onto->num_relations()); ++r) {
      AppendString(&buf, onto->RelationName(r));
    }
  }
  return storage::FnvHash(buf.data(), buf.size());
}

// ---------------------------------------------------------------------------
// Instance equivalences (friend of InstanceEquivalences)
// ---------------------------------------------------------------------------

// CSR over sorted left keys: keys, offsets, then the candidate (other, prob)
// pair split into two parallel columns so no struct padding reaches the file.
// The store keeps its left rows in this layout, so this writes its columns
// in order.
void SaveInstanceEquivalences(const InstanceEquivalences& equiv,
                              storage::SnapshotWriter& writer) {
  assert(equiv.finalized());
  const auto& rows = equiv.tables().left;
  const std::vector<uint64_t> offsets(rows.offsets.begin(), rows.offsets.end());
  std::vector<rdf::TermId> others;
  std::vector<double> probs;
  others.reserve(rows.column.size());
  probs.reserve(rows.column.size());
  for (const Candidate& c : rows.column) {
    others.push_back(c.other);
    probs.push_back(c.prob);
  }
  writer.WritePodVector(rows.keys);
  writer.WritePodVector(offsets);
  writer.WritePodVector(others);
  writer.WritePodVector(probs);
}

util::StatusOr<InstanceEquivalences> LoadInstanceEquivalences(
    storage::SnapshotReader& reader, size_t pool_size) {
  storage::Column<rdf::TermId> keys;
  storage::Column<uint64_t> offsets;
  storage::Column<rdf::TermId> others;
  storage::Column<double> probs;
  if (!reader.ReadPodColumn(&keys) || !reader.ReadPodColumn(&offsets) ||
      !reader.ReadPodColumn(&others) || !reader.ReadPodColumn(&probs)) {
    return util::DataLossError(
        "truncated instance-equivalence section");
  }
  const auto invalid = [] {
    return util::DataLossError(
        "corrupt instance-equivalence section");
  };
  if (offsets.size() != keys.size() + 1 || offsets.front() != 0 ||
      offsets.back() != others.size() || others.size() != probs.size() ||
      others.size() > UINT32_MAX) {
    return invalid();
  }
  InstanceEquivalences out;
  auto& rows = out.MutableTables().left;
  rows.keys.reserve(keys.size());
  rows.offsets.reserve(keys.size() + 1);
  rows.column.reserve(others.size());
  for (size_t i = 0; i < keys.size(); ++i) {
    if (i > 0 && keys[i] <= keys[i - 1]) return invalid();
    if (static_cast<size_t>(keys[i]) >= pool_size) return invalid();
    const uint64_t begin = offsets[i];
    const uint64_t end = offsets[i + 1];
    // Strictly increasing (stored lists are never empty) and in bounds —
    // the endpoint checks above do not rule out a corrupt middle offset.
    if (end <= begin || end > others.size()) return invalid();
    for (uint64_t j = begin; j < end; ++j) {
      if (static_cast<size_t>(others[j]) >= pool_size) return invalid();
      if (!(probs[j] > 0.0) || probs[j] > 1.0) return invalid();
      // The Set contract: sorted by descending prob, ties by ascending id.
      if (j > begin && !(probs[j - 1] > probs[j] ||
                         (probs[j - 1] == probs[j] &&
                          others[j - 1] < others[j]))) {
        return invalid();
      }
      rows.column.push_back(Candidate{others[j], probs[j]});
    }
    rows.keys.push_back(keys[i]);
    rows.offsets.push_back(static_cast<uint32_t>(end));
  }
  out.Finalize();
  return out;
}

// ---------------------------------------------------------------------------
// Relation scores (friend of RelationScores)
// ---------------------------------------------------------------------------

void SaveRelationScores(const RelationScores& scores,
                        storage::SnapshotWriter& writer) {
  writer.WriteU8(scores.bootstrap_ ? 1 : 0);
  writer.WriteDouble(scores.theta_);
  const auto save_table = [&writer](const RelationScores::Table& table) {
    std::vector<uint64_t> keys;
    keys.reserve(table.size());
    for (const auto& [key, score] : table) keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    std::vector<double> values;
    values.reserve(keys.size());
    for (uint64_t key : keys) values.push_back(table.at(key));
    writer.WritePodVector(keys);
    writer.WritePodVector(values);
  };
  save_table(scores.left_sub_right_);
  save_table(scores.right_sub_left_);
}

util::StatusOr<RelationScores> LoadRelationScores(
    storage::SnapshotReader& reader, size_t num_left_relations,
    size_t num_right_relations) {
  RelationScores scores;
  scores.bootstrap_ = reader.ReadU8() != 0;
  scores.theta_ = reader.ReadDouble();
  if (!reader.ok() || scores.theta_ < 0.0 || scores.theta_ > 1.0) {
    return util::DataLossError("corrupt relation-score section");
  }
  const auto load_table = [&reader](RelationScores::Table* table,
                                    size_t num_sub, size_t num_super) {
    storage::Column<uint64_t> keys;
    storage::Column<double> values;
    if (!reader.ReadPodColumn(&keys) || !reader.ReadPodColumn(&values) ||
        keys.size() != values.size()) {
      return false;
    }
    table->reserve(keys.size());
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i > 0 && keys[i] <= keys[i - 1]) return false;
      const rdf::RelId sub =
          RelationScores::Decode(util::UnpackFirst(keys[i]));
      const rdf::RelId super =
          RelationScores::Decode(util::UnpackSecond(keys[i]));
      // Stored sub ids are canonical (positive); supers may be inverses.
      if (sub <= 0 || static_cast<size_t>(sub) > num_sub) return false;
      if (super == 0 ||
          static_cast<size_t>(super < 0 ? -super : super) > num_super) {
        return false;
      }
      if (values[i] < 0.0 || values[i] > 1.0) return false;
      table->emplace(keys[i], values[i]);
    }
    return true;
  };
  if (!load_table(&scores.left_sub_right_, num_left_relations,
                  num_right_relations) ||
      !load_table(&scores.right_sub_left_, num_right_relations,
                  num_left_relations)) {
    return util::DataLossError("corrupt relation-score section");
  }
  return scores;
}

// ---------------------------------------------------------------------------
// Class scores, config key, run metadata
// ---------------------------------------------------------------------------

namespace {

void SaveClassScores(const ClassScores& scores,
                     storage::SnapshotWriter& writer) {
  const auto& entries = scores.entries();
  std::vector<rdf::TermId> subs;
  std::vector<rdf::TermId> supers;
  std::vector<double> values;
  std::vector<uint8_t> sides;
  subs.reserve(entries.size());
  supers.reserve(entries.size());
  values.reserve(entries.size());
  sides.reserve(entries.size());
  for (const ClassAlignmentEntry& e : entries) {
    subs.push_back(e.sub);
    supers.push_back(e.super);
    values.push_back(e.score);
    sides.push_back(e.sub_is_left ? 1 : 0);
  }
  writer.WritePodVector(subs);
  writer.WritePodVector(supers);
  writer.WritePodVector(values);
  writer.WritePodVector(sides);
}

util::StatusOr<ClassScores> LoadClassScores(storage::SnapshotReader& reader,
                                            size_t pool_size) {
  storage::Column<rdf::TermId> subs;
  storage::Column<rdf::TermId> supers;
  storage::Column<double> values;
  storage::Column<uint8_t> sides;
  if (!reader.ReadPodColumn(&subs) || !reader.ReadPodColumn(&supers) ||
      !reader.ReadPodColumn(&values) || !reader.ReadPodColumn(&sides)) {
    return util::DataLossError("truncated class-score section");
  }
  if (supers.size() != subs.size() || values.size() != subs.size() ||
      sides.size() != subs.size()) {
    return util::DataLossError("corrupt class-score section");
  }
  std::vector<ClassAlignmentEntry> entries;
  entries.reserve(subs.size());
  for (size_t i = 0; i < subs.size(); ++i) {
    if (static_cast<size_t>(subs[i]) >= pool_size ||
        static_cast<size_t>(supers[i]) >= pool_size || sides[i] > 1 ||
        values[i] < 0.0 || values[i] > 1.0) {
      return util::DataLossError("corrupt class-score section");
    }
    entries.push_back(
        ClassAlignmentEntry{subs[i], supers[i], values[i], sides[i] == 1});
  }
  return ClassScores(std::move(entries));
}

// The trajectory-shaping config fields, in serialization order. Doubles are
// written and compared as IEEE-754 bit patterns: "same run" means the same
// bits, not approximately the same values.
void SaveRunKey(storage::SnapshotWriter& writer,
                const ontology::Ontology& left,
                const ontology::Ontology& right,
                const AlignmentConfig& config, const std::string& matcher) {
  writer.WriteU64(OntologyPairFingerprint(left, right));
  writer.WriteString(matcher);
  writer.WriteDouble(config.theta);
  writer.WriteDouble(config.convergence_threshold);
  writer.WriteDouble(config.instance_threshold);
  writer.WriteDouble(config.relation_min_score);
  writer.WriteDouble(config.class_min_score);
  writer.WriteU8(config.use_negative_evidence ? 1 : 0);
  writer.WriteU8(config.use_full_equalities ? 1 : 0);
  writer.WriteU64(config.relation_pair_sample);
  writer.WriteU64(config.class_instance_sample);
  writer.WriteU64(config.max_candidates_per_instance);
  writer.WriteU64(config.max_neighbor_fanout);
  writer.WriteU32(static_cast<uint32_t>(config.functionality_variant));
  writer.WriteDouble(config.dampening);
  writer.WriteU8(config.use_relation_name_prior ? 1 : 0);
  writer.WriteDouble(config.name_prior_cap);
}

util::Status CheckRunKey(storage::SnapshotReader& reader,
                         const ontology::Ontology& left,
                         const ontology::Ontology& right,
                         const AlignmentConfig& config,
                         const std::string& matcher) {
  const auto mismatch = [](const std::string& field, const std::string& was,
                           const std::string& now) {
    return util::FailedPreconditionError(
        "result snapshot is from a different run setup: " + field + " was " +
        was + ", this run uses " + now);
  };
  if (reader.ReadU64() != OntologyPairFingerprint(left, right)) {
    if (!reader.ok()) {
      return util::DataLossError("truncated result snapshot");
    }
    return util::FailedPreconditionError(
        "result snapshot was produced from a different ontology pair");
  }
  const std::string stored_matcher = reader.ReadString();
  if (!reader.ok()) {
    return util::DataLossError("truncated result snapshot");
  }
  if (stored_matcher != matcher) {
    return mismatch("matcher", stored_matcher, matcher);
  }

  util::Status status = util::OkStatus();
  const auto check_double = [&](const char* field, double now) {
    const uint64_t was_bits = reader.ReadU64();
    if (!status.ok() || !reader.ok()) return;
    if (was_bits != std::bit_cast<uint64_t>(now)) {
      status = mismatch(field, std::to_string(std::bit_cast<double>(was_bits)),
                        std::to_string(now));
    }
  };
  const auto check_u64 = [&](const char* field, uint64_t now) {
    const uint64_t was = reader.ReadU64();
    if (!status.ok() || !reader.ok()) return;
    if (was != now) {
      status = mismatch(field, std::to_string(was), std::to_string(now));
    }
  };
  const auto check_bool = [&](const char* field, bool now) {
    const uint8_t was = reader.ReadU8();
    if (!status.ok() || !reader.ok()) return;
    if ((was != 0) != now) {
      status = mismatch(field, was != 0 ? "true" : "false",
                        now ? "true" : "false");
    }
  };
  check_double("theta", config.theta);
  check_double("convergence_threshold", config.convergence_threshold);
  check_double("instance_threshold", config.instance_threshold);
  check_double("relation_min_score", config.relation_min_score);
  check_double("class_min_score", config.class_min_score);
  check_bool("use_negative_evidence", config.use_negative_evidence);
  check_bool("use_full_equalities", config.use_full_equalities);
  check_u64("relation_pair_sample", config.relation_pair_sample);
  check_u64("class_instance_sample", config.class_instance_sample);
  check_u64("max_candidates_per_instance",
            config.max_candidates_per_instance);
  check_u64("max_neighbor_fanout", config.max_neighbor_fanout);
  {
    const uint32_t was = reader.ReadU32();
    if (status.ok() && reader.ok() &&
        was != static_cast<uint32_t>(config.functionality_variant)) {
      status = mismatch("functionality_variant", std::to_string(was),
                        std::to_string(static_cast<uint32_t>(
                            config.functionality_variant)));
    }
  }
  check_double("dampening", config.dampening);
  check_bool("use_relation_name_prior", config.use_relation_name_prior);
  check_double("name_prior_cap", config.name_prior_cap);
  if (!reader.ok()) {
    return util::DataLossError("truncated result snapshot");
  }
  return status;
}

// The sections behind the header; shared by the streaming and mmap paths.
util::StatusOr<AlignmentResult> LoadResultSections(
    storage::SnapshotReader& reader, const ontology::Ontology& left,
    const ontology::Ontology& right, const AlignmentConfig& config,
    const std::string& matcher) {
  util::Status key = CheckRunKey(reader, left, right, config, matcher);
  if (!key.ok()) return key;

  AlignmentResult result;
  const uint64_t num_iterations = reader.ReadU64();
  if (!reader.ok() || num_iterations > kMaxIterations) {
    return util::DataLossError("corrupt iteration records");
  }
  // Don't trust `num_iterations` for an upfront reservation — in streaming
  // mode the checksum is only verified after the sections, and
  // IterationRecord is large; a corrupt count fails at the first record's
  // index check instead.
  result.iterations.reserve(std::min<uint64_t>(num_iterations, 64));
  for (uint64_t i = 0; i < num_iterations; ++i) {
    IterationRecord record;
    record.index = static_cast<int>(reader.ReadU32());
    record.seconds_instances = reader.ReadDouble();
    record.seconds_relations = reader.ReadDouble();
    record.change_fraction = reader.ReadDouble();
    record.num_left_aligned = reader.ReadU64();
    if (!reader.ok() || record.index != static_cast<int>(i) + 1) {
      return util::DataLossError("corrupt iteration records");
    }
    result.iterations.push_back(std::move(record));
  }
  result.converged_at =
      static_cast<int>(static_cast<int32_t>(reader.ReadU32()));
  result.seconds_classes = reader.ReadDouble();
  result.seconds_total = reader.ReadDouble();
  if (!reader.ok() ||
      (result.converged_at != -1 &&
       (result.converged_at < 1 ||
        result.converged_at > static_cast<int>(num_iterations)))) {
    return util::DataLossError("corrupt iteration records");
  }

  const size_t pool_size = left.pool().size();
  auto instances = LoadInstanceEquivalences(reader, pool_size);
  if (!instances.ok()) return instances.status();
  result.instances = std::move(instances).value();
  auto relations = LoadRelationScores(reader, left.num_relations(),
                                      right.num_relations());
  if (!relations.ok()) return relations.status();
  result.relations = std::move(relations).value();
  auto classes = LoadClassScores(reader, pool_size);
  if (!classes.ok()) return classes.status();
  result.classes = std::move(classes).value();

  // Partial-iteration checkpoint (mid-iteration cancel), v2.
  const auto invalid_partial = [] {
    return util::DataLossError("corrupt partial-iteration section");
  };
  const uint8_t has_partial = reader.ReadU8();
  if (!reader.ok() || has_partial > 1) return invalid_partial();
  if (has_partial == 1) {
    PartialIterationState partial;
    partial.iteration = static_cast<int>(reader.ReadU32());
    partial.pass = static_cast<int>(reader.ReadU32());
    partial.num_shards = reader.ReadU32();
    const uint64_t num_cached = reader.ReadU64();
    // A partial iteration is always the one right after the completed
    // records, belongs to a cancellable pass, and can only exist in a run
    // that had not converged.
    if (!reader.ok() ||
        partial.iteration != static_cast<int>(num_iterations) + 1 ||
        (partial.pass != kInstancePass && partial.pass != kRelationPass) ||
        partial.num_shards > kMaxShards || num_cached > partial.num_shards ||
        result.converged_at != -1) {
      return invalid_partial();
    }
    partial.shards.reserve(num_cached);
    partial.payloads.reserve(num_cached);
    for (uint64_t i = 0; i < num_cached; ++i) {
      const uint32_t shard = reader.ReadU32();
      std::string payload = reader.ReadString();
      if (!reader.ok() || shard >= partial.num_shards ||
          (i > 0 && shard <= partial.shards.back())) {
        return invalid_partial();
      }
      partial.shards.push_back(shard);
      partial.payloads.push_back(std::move(payload));
    }
    if (partial.pass == kRelationPass) {
      auto current = LoadInstanceEquivalences(reader, pool_size);
      if (!current.ok()) return current.status();
      partial.instances = std::move(current).value();
    }
    result.partial.emplace(std::move(partial));
  }
  return result;
}

}  // namespace

namespace {

// Writes one complete snapshot file — magic through checksum trailer —
// from a non-owning view. Both the atomic file save and the in-memory
// checkpoint serialization go through here, so the formats cannot drift.
void WriteResultSections(storage::SnapshotWriter& writer, std::ostream& raw,
                         const ResultSnapshotView& view,
                         const ontology::Ontology& left,
                         const ontology::Ontology& right,
                         const AlignmentConfig& config,
                         const std::string& matcher) {
  raw.write(kResultSnapshotMagic, sizeof(kResultSnapshotMagic));
  writer.WriteU32(kResultSnapshotVersion);
  SaveRunKey(writer, left, right, config, matcher);

  writer.WriteU64(view.iterations.size());
  for (const IterationRecord& record : view.iterations) {
    writer.WriteU32(static_cast<uint32_t>(record.index));
    writer.WriteDouble(record.seconds_instances);
    writer.WriteDouble(record.seconds_relations);
    writer.WriteDouble(record.change_fraction);
    writer.WriteU64(record.num_left_aligned);
  }
  writer.WriteU32(static_cast<uint32_t>(view.converged_at));
  writer.WriteDouble(view.seconds_classes);
  writer.WriteDouble(view.seconds_total);

  SaveInstanceEquivalences(*view.instances, writer);
  SaveRelationScores(*view.relations, writer);
  static const ClassScores kNoClasses;
  SaveClassScores(view.classes != nullptr ? *view.classes : kNoClasses,
                  writer);

  // Partial-iteration checkpoint (mid-iteration cancel), v2.
  writer.WriteU8(view.has_partial ? 1 : 0);
  if (view.has_partial) {
    writer.WriteU32(static_cast<uint32_t>(view.partial_iteration));
    writer.WriteU32(static_cast<uint32_t>(view.partial_pass));
    writer.WriteU32(view.partial_num_shards);
    writer.WriteU64(view.partial_shards.size());
    for (size_t i = 0; i < view.partial_shards.size(); ++i) {
      writer.WriteU32(view.partial_shards[i]);
      writer.WriteString(view.partial_payloads[i]);
    }
    if (view.partial_pass == kRelationPass) {
      SaveInstanceEquivalences(*view.partial_instances, writer);
    }
  }
  writer.WriteU64(writer.checksum());
}

ResultSnapshotView ViewOf(const AlignmentResult& result) {
  ResultSnapshotView view;
  view.iterations = result.iterations;
  view.converged_at = result.converged_at;
  view.seconds_classes = result.seconds_classes;
  view.seconds_total = result.seconds_total;
  view.instances = &result.instances;
  view.relations = &result.relations;
  view.classes = &result.classes;
  if (result.partial.has_value()) {
    const PartialIterationState& partial = *result.partial;
    view.has_partial = true;
    view.partial_iteration = partial.iteration;
    view.partial_pass = partial.pass;
    view.partial_num_shards = partial.num_shards;
    view.partial_shards = partial.shards;
    view.partial_payloads = partial.payloads;
    view.partial_instances = &partial.instances;
  }
  return view;
}

}  // namespace

util::Status SaveAlignmentResult(const std::string& path,
                                 const AlignmentResult& result,
                                 const ontology::Ontology& left,
                                 const ontology::Ontology& right,
                                 const AlignmentConfig& config,
                                 const std::string& matcher) {
  if (&left.pool() != &right.pool()) {
    return util::InvalidArgumentError(
        "result snapshot requires both ontologies to share one term pool");
  }
  util::AtomicFileWriter out(path);
  storage::SnapshotWriter writer(out.stream());
  WriteResultSections(writer, out.stream(), ViewOf(result), left, right,
                      config, matcher);
  return out.Commit();
}

std::string SerializeAlignmentResult(const ResultSnapshotView& view,
                                     const ontology::Ontology& left,
                                     const ontology::Ontology& right,
                                     const AlignmentConfig& config,
                                     const std::string& matcher) {
  std::ostringstream out(std::ios::binary);
  storage::SnapshotWriter writer(out);
  WriteResultSections(writer, out, view, left, right, config, matcher);
  return std::move(out).str();
}

util::StatusOr<AlignmentResult> LoadAlignmentResult(
    const std::string& path, const ontology::Ontology& left,
    const ontology::Ontology& right, const AlignmentConfig& config,
    const std::string& matcher, storage::SnapshotLoadMode mode) {
  std::optional<AlignmentResult> out;
  util::Status status = storage::LoadSnapshotFile(
      path, mode, kResultSnapshotMagic, kResultSnapshotVersion,
      kResultSnapshotVersion, "result snapshot",
      [&](storage::SnapshotReader& reader, uint32_t /*file_version*/) {
        auto result = LoadResultSections(reader, left, right, config, matcher);
        if (!result.ok()) return result.status();
        out.emplace(std::move(result).value());
        return util::OkStatus();
      });
  if (!status.ok()) return status;
  // A checkpoint with more completed iterations than the requested cap
  // cannot reproduce a cold run under that cap — reject rather than return
  // a result that exceeds it.
  if (out->iterations.size() > static_cast<size_t>(
                                   std::max(config.max_iterations, 0))) {
    return util::FailedPreconditionError(
        "result snapshot completed " + std::to_string(out->iterations.size()) +
        " iterations, more than max_iterations=" +
        std::to_string(config.max_iterations) + " of this run");
  }
  return std::move(*out);
}

}  // namespace paris::core

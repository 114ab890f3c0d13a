#include "paris/core/result_reader.h"

#include <algorithm>
#include <cstddef>

#include "paris/core/pass.h"
#include "paris/core/result_snapshot.h"
#include "paris/util/hash.h"

namespace paris::core {

namespace {

// Same structural bounds as the loader (result_snapshot.cc).
constexpr uint64_t kMaxIterations = 1 << 20;
constexpr uint64_t kMaxShards = 1 << 20;

util::Status Corrupt(const char* what) {
  return util::DataLossError(std::string("corrupt ") + what +
                             " in result snapshot");
}

}  // namespace

util::StatusOr<ResultReader> ResultReader::Open(
    const std::string& path, storage::SnapshotLoadMode mode) {
  ResultReader out;
  util::Status status = storage::LoadSnapshotFile(
      path, mode, kResultSnapshotFamily,
      [&](storage::SnapshotReader& reader, uint32_t /*file_version*/) {
        util::Status loaded = out.LoadSections(reader);
        if (loaded.ok()) out.mapping_ = reader.view_owner();
        return loaded;
      });
  if (!status.ok()) return status;
  out.BuildIndexes();
  return out;
}

util::Status ResultReader::LoadSections(storage::SnapshotReader& reader) {
  // Run key: carried as metadata; no ontology pair to validate against.
  stats_.pair_fingerprint = reader.ReadU64();
  stats_.matcher = reader.ReadString();
  for (int i = 0; i < 5; ++i) reader.ReadDouble();  // thresholds
  reader.ReadU8();                                  // use_negative_evidence
  reader.ReadU8();                                  // use_full_equalities
  for (int i = 0; i < 4; ++i) reader.ReadU64();     // sampling caps
  reader.ReadU32();                                 // functionality_variant
  reader.ReadDouble();                              // dampening
  reader.ReadU8();                                  // use_relation_name_prior
  reader.ReadDouble();                              // name_prior_cap
  if (!reader.ok()) return Corrupt("run key");

  const uint64_t num_iterations = reader.ReadU64();
  if (!reader.ok() || num_iterations > kMaxIterations) {
    return Corrupt("iteration records");
  }
  stats_.num_iterations = static_cast<size_t>(num_iterations);
  for (uint64_t i = 0; i < num_iterations; ++i) {
    const uint32_t index = reader.ReadU32();
    reader.ReadDouble();  // seconds_instances
    reader.ReadDouble();  // seconds_relations
    reader.ReadDouble();  // change_fraction
    stats_.num_left_aligned = reader.ReadU64();
    if (!reader.ok() || index != i + 1) return Corrupt("iteration records");
  }
  stats_.converged_at = static_cast<int>(
      static_cast<int32_t>(reader.ReadU32()));
  reader.ReadDouble();  // seconds_classes
  stats_.seconds_total = reader.ReadDouble();
  if (!reader.ok() ||
      (stats_.converged_at != -1 &&
       (stats_.converged_at < 1 ||
        stats_.converged_at > static_cast<int>(num_iterations)))) {
    return Corrupt("iteration records");
  }

  // Instance equivalences: CSR over sorted left keys.
  if (!reader.ReadPodColumn(&inst_keys_) ||
      !reader.ReadPodColumn(&inst_offsets_) ||
      !reader.ReadPodColumn(&inst_others_) ||
      !reader.ReadPodColumn(&inst_probs_)) {
    return Corrupt("instance-equivalence section");
  }
  if (inst_offsets_.size() != inst_keys_.size() + 1 ||
      inst_offsets_.front() != 0 ||
      inst_offsets_.back() != inst_others_.size() ||
      inst_others_.size() != inst_probs_.size()) {
    return Corrupt("instance-equivalence section");
  }
  for (size_t i = 0; i < inst_keys_.size(); ++i) {
    if (i > 0 && inst_keys_[i] <= inst_keys_[i - 1]) {
      return Corrupt("instance-equivalence section");
    }
    const uint64_t begin = inst_offsets_[i];
    const uint64_t end = inst_offsets_[i + 1];
    if (end <= begin || end > inst_others_.size()) {
      return Corrupt("instance-equivalence section");
    }
    for (uint64_t j = begin; j < end; ++j) {
      if (!(inst_probs_[j] > 0.0) || inst_probs_[j] > 1.0) {
        return Corrupt("instance-equivalence section");
      }
    }
  }
  stats_.num_instance_keys = inst_keys_.size();
  stats_.num_instance_pairs = inst_others_.size();

  // Relation scores: sorted packed keys, both directions.
  stats_.relation_bootstrap = reader.ReadU8() != 0;
  stats_.theta = reader.ReadDouble();
  if (!reader.ok() || stats_.theta < 0.0 || stats_.theta > 1.0) {
    return Corrupt("relation-score section");
  }
  const auto load_rel_table = [&](storage::Column<uint64_t>* keys,
                                  storage::Column<double>* values) {
    if (!reader.ReadPodColumn(keys) || !reader.ReadPodColumn(values) ||
        keys->size() != values->size()) {
      return false;
    }
    for (size_t i = 0; i < keys->size(); ++i) {
      if (i > 0 && (*keys)[i] <= (*keys)[i - 1]) return false;
      if ((*values)[i] < 0.0 || (*values)[i] > 1.0) return false;
    }
    return true;
  };
  if (!load_rel_table(&rel_left_keys_, &rel_left_values_) ||
      !load_rel_table(&rel_right_keys_, &rel_right_values_)) {
    return Corrupt("relation-score section");
  }
  stats_.num_relation_entries = rel_left_keys_.size() + rel_right_keys_.size();

  // Class scores: parallel entry columns.
  if (!reader.ReadPodColumn(&class_subs_) ||
      !reader.ReadPodColumn(&class_supers_) ||
      !reader.ReadPodColumn(&class_values_) ||
      !reader.ReadPodColumn(&class_sides_)) {
    return Corrupt("class-score section");
  }
  if (class_supers_.size() != class_subs_.size() ||
      class_values_.size() != class_subs_.size() ||
      class_sides_.size() != class_subs_.size()) {
    return Corrupt("class-score section");
  }
  for (size_t i = 0; i < class_subs_.size(); ++i) {
    if (class_sides_[i] > 1 || class_values_[i] < 0.0 ||
        class_values_[i] > 1.0) {
      return Corrupt("class-score section");
    }
  }
  stats_.num_class_entries = class_subs_.size();

  // Partial-iteration checkpoint: consumed for framing (the trailer check
  // requires it) but not served — stats_.has_partial tells callers this
  // snapshot is a mid-run state.
  const uint8_t has_partial = reader.ReadU8();
  if (!reader.ok() || has_partial > 1) return Corrupt("partial section");
  stats_.has_partial = has_partial == 1;
  if (has_partial == 1) {
    reader.ReadU32();  // iteration
    const int pass = static_cast<int>(reader.ReadU32());
    const uint32_t num_shards = reader.ReadU32();
    const uint64_t num_cached = reader.ReadU64();
    if (!reader.ok() || (pass != kInstancePass && pass != kRelationPass) ||
        num_shards > kMaxShards || num_cached > num_shards) {
      return Corrupt("partial section");
    }
    for (uint64_t i = 0; i < num_cached; ++i) {
      reader.ReadU32();
      (void)reader.ReadString();
      if (!reader.ok()) return Corrupt("partial section");
    }
    if (pass == kRelationPass) {
      storage::Column<rdf::TermId> keys, others;
      storage::Column<uint64_t> offsets;
      storage::Column<double> probs;
      if (!reader.ReadPodColumn(&keys) || !reader.ReadPodColumn(&offsets) ||
          !reader.ReadPodColumn(&others) || !reader.ReadPodColumn(&probs)) {
        return Corrupt("partial section");
      }
    }
  }
  return util::OkStatus();
}

void ResultReader::BuildIndexes() {
  // Right-to-left transpose: the file only stores left keys, but "what
  // aligns with right entity Y" is half the traffic. Small relative to the
  // mapped columns (16 bytes per stored pair).
  right_index_.reserve(inst_others_.size());
  for (size_t i = 0; i < inst_keys_.size(); ++i) {
    for (uint64_t j = inst_offsets_[i]; j < inst_offsets_[i + 1]; ++j) {
      right_index_.push_back(
          TransposeEntry{inst_others_[j], inst_keys_[i], inst_probs_[j]});
    }
  }
  std::sort(right_index_.begin(), right_index_.end(),
            [](const TransposeEntry& a, const TransposeEntry& b) {
              if (a.right != b.right) return a.right < b.right;
              if (a.prob != b.prob) return a.prob > b.prob;
              return a.left < b.left;
            });

  // Class entries arrive in shard-merge order, not sorted by sub; index
  // their positions by (side, sub, desc score, super).
  class_index_.resize(class_subs_.size());
  for (uint32_t i = 0; i < class_index_.size(); ++i) class_index_[i] = i;
  std::sort(class_index_.begin(), class_index_.end(),
            [this](uint32_t a, uint32_t b) {
              if (class_sides_[a] != class_sides_[b]) {
                return class_sides_[a] > class_sides_[b];  // left side first
              }
              if (class_subs_[a] != class_subs_[b]) {
                return class_subs_[a] < class_subs_[b];
              }
              if (class_values_[a] != class_values_[b]) {
                return class_values_[a] > class_values_[b];
              }
              return class_supers_[a] < class_supers_[b];
            });
}

ResultReader::EntityCandidates ResultReader::LeftEntity(
    rdf::TermId left) const {
  const std::span<const rdf::TermId> keys = inst_keys_.span();
  const auto it = std::lower_bound(keys.begin(), keys.end(), left);
  if (it == keys.end() || *it != left) return {};
  const size_t i = static_cast<size_t>(it - keys.begin());
  const uint64_t begin = inst_offsets_[i];
  const uint64_t end = inst_offsets_[i + 1];
  return EntityCandidates{
      inst_others_.span().subspan(begin, end - begin),
      inst_probs_.span().subspan(begin, end - begin)};
}

std::vector<ResultReader::EntityMatch> ResultReader::RightEntity(
    rdf::TermId right) const {
  const auto lo = std::lower_bound(
      right_index_.begin(), right_index_.end(), right,
      [](const TransposeEntry& e, rdf::TermId key) { return e.right < key; });
  const auto hi = std::upper_bound(
      lo, right_index_.end(), right,
      [](rdf::TermId key, const TransposeEntry& e) { return key < e.right; });
  std::vector<EntityMatch> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    out.push_back(EntityMatch{it->left, it->prob});
  }
  return out;
}

std::vector<ResultReader::RelationMatch> ResultReader::RelationSupers(
    rdf::RelId sub, bool sub_is_left) const {
  std::vector<RelationMatch> out;
  if (sub == 0) return out;
  // Pr(r subOf r') = Pr(r-1 subOf r'-1): stored sub ids are canonical
  // (positive); an inverse query flips both sides.
  const bool inverted = sub < 0;
  const std::span<const uint64_t> keys =
      sub_is_left ? rel_left_keys_.span() : rel_right_keys_.span();
  const std::span<const double> values =
      sub_is_left ? rel_left_values_.span() : rel_right_values_.span();
  // All packed keys of one sub are contiguous in the sorted column. The
  // canonical (positive) sub's ZigZag code is Encode(sub) rounded up to
  // even, since Encode(-r) == Encode(r) - 1 for r > 0. Spelled via parity
  // instead of the obvious Encode(inverted ? -sub : sub): GCC 12.2 expands
  // that ABS_EXPR into a cmov whose source operand it already clobbered
  // (x86 `neg; mov; cmovns` over one register), returning -sub for every
  // positive sub at -O2.
  const uint32_t encoded = (RelationScores::Encode(sub) + 1u) & ~1u;
  const uint64_t lo_key = util::PackPair(encoded, 0);
  const uint64_t hi_key = util::PackPair(encoded + 1, 0);
  const auto lo = std::lower_bound(keys.begin(), keys.end(), lo_key);
  const auto hi = std::lower_bound(lo, keys.end(), hi_key);
  out.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    const size_t i = static_cast<size_t>(it - keys.begin());
    const rdf::RelId super =
        RelationScores::Decode(util::UnpackSecond(*it));
    double score = values[i];
    if (stats_.relation_bootstrap) score = std::max(score, stats_.theta);
    out.push_back(RelationMatch{inverted ? -super : super, score});
  }
  std::sort(out.begin(), out.end(),
            [](const RelationMatch& a, const RelationMatch& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.super < b.super;
            });
  return out;
}

std::vector<ResultReader::ClassMatch> ResultReader::ClassSupers(
    rdf::TermId sub, bool sub_is_left) const {
  const uint8_t side = sub_is_left ? 1 : 0;
  const auto key_less = [this](uint32_t pos, std::pair<uint8_t, rdf::TermId> k) {
    if (class_sides_[pos] != k.first) return class_sides_[pos] > k.first;
    return class_subs_[pos] < k.second;
  };
  const auto less_key = [this](std::pair<uint8_t, rdf::TermId> k, uint32_t pos) {
    if (class_sides_[pos] != k.first) return k.first > class_sides_[pos];
    return k.second < class_subs_[pos];
  };
  const auto lo = std::lower_bound(class_index_.begin(), class_index_.end(),
                                   std::make_pair(side, sub), key_less);
  const auto hi = std::upper_bound(lo, class_index_.end(),
                                   std::make_pair(side, sub), less_key);
  std::vector<ClassMatch> out;
  out.reserve(static_cast<size_t>(hi - lo));
  for (auto it = lo; it != hi; ++it) {
    out.push_back(ClassMatch{class_supers_[*it], class_values_[*it]});
  }
  return out;
}

}  // namespace paris::core

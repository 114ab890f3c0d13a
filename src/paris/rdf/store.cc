#include "paris/rdf/store.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "paris/storage/snapshot.h"

namespace paris::rdf {

RelId TripleStore::InternRelation(TermId name) {
  auto it = rel_index_.find(name);
  if (it != rel_index_.end()) return it->second;
  rel_names_.push_back(name);
  const RelId id = static_cast<RelId>(rel_names_.size());
  rel_index_.emplace(name, id);
  return id;
}

std::optional<RelId> TripleStore::FindRelation(TermId name) const {
  auto it = rel_index_.find(name);
  if (it == rel_index_.end()) return std::nullopt;
  return it->second;
}

uint32_t TripleStore::LocalIndex(TermId t) {
  if (static_cast<size_t>(t) >= local_index_.size()) {
    local_index_.resize(std::max(static_cast<size_t>(t) + 1, pool_->size()),
                        kNoLocal);
  }
  uint32_t& local = local_index_[t];
  if (local == kNoLocal) {
    local = static_cast<uint32_t>(terms_.size());
    terms_.push_back(t);
  }
  return local;
}

void TripleStore::Add(TermId subject, RelId rel, TermId object) {
  assert(rel != kNullRel);
  if (rel < 0) {
    Add(object, -rel, subject);
    return;
  }
  assert(static_cast<size_t>(rel) <= rel_names_.size() &&
         "relation not registered");
  pending_.push_back({LocalIndex(subject), rel, object});
  pending_.push_back({LocalIndex(object), Inverse(rel), subject});
}

void TripleStore::Finalize(util::ThreadPool* pool, obs::Hooks hooks) {
  assert(!finalized_);
  index_ = storage::ColumnarIndex::Build(terms_, rel_names_.size(),
                                         std::move(pending_), pool, hooks);
  tri_ = storage::TriIndex::Build(index_, pool, hooks);
  pending_ = {};
  finalized_ = true;
}

std::span<const Fact> TripleStore::FactsAbout(TermId t) const {
  assert(finalized_);
  const uint32_t local = PackedLocal(t);
  if (local == kNoLocal) return {};
  return index_.FactsAbout(local);
}

std::span<const Fact> TripleStore::FactsAbout(TermId t, RelId rel) const {
  assert(finalized_);
  const uint32_t local = PackedLocal(t);
  if (local == kNoLocal) return {};
  return index_.FactsWith(local, rel);
}

std::span<const TermId> TripleStore::ObjectsOf(TermId t, RelId rel) const {
  assert(finalized_);
  const uint32_t local = PackedLocal(t);
  if (local == kNoLocal) return {};
  return index_.ObjectsOf(local, rel);
}

bool TripleStore::Contains(TermId s, RelId rel, TermId o) const {
  assert(finalized_);
  const uint32_t local = PackedLocal(s);
  return local != kNoLocal && index_.Contains(local, rel, o);
}

TripleStore::FactsCursor TripleStore::CursorFor(TermId t) const {
  assert(finalized_);
  const uint32_t local = PackedLocal(t);
  if (local == kNoLocal) return {};
  return FactsCursor(&index_, local);
}

TripleStore::DeltaMergeResult TripleStore::MergeDelta(util::ThreadPool* pool,
                                                      obs::Hooks hooks) {
  assert(finalized_ && "MergeDelta() requires a finalized store");
  const std::vector<storage::ColumnarIndex::Entry> kept = index_.MergeDelta(
      terms_, rel_names_.size(), std::move(pending_), pool, hooks);
  pending_ = {};

  DeltaMergeResult result;
  std::vector<Triple> novel;
  for (const auto& e : kept) {
    result.touched_terms.push_back(terms_[e.owner]);
    result.touched_relations.push_back(BaseRel(e.rel));
    if (e.rel > 0) {
      ++result.num_new_statements;
      // Each novel statement appears once with a positive relation (its
      // inverse half carries the negated id).
      novel.push_back(Triple{terms_[e.owner], e.rel, e.other});
    }
  }
  tri_.MergeDelta(std::move(novel));
  auto canonicalize = [](auto& v) {
    std::sort(v.begin(), v.end());
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  canonicalize(result.touched_terms);
  canonicalize(result.touched_relations);
  return result;
}

std::string TripleStore::RelationDebugName(RelId rel) const {
  std::string name(pool_->lexical(relation_name(rel)));
  if (IsInverse(rel)) name += "^-1";
  return name;
}

void TripleStore::ForEachPair(
    RelId rel, size_t limit,
    const std::function<void(TermId, TermId)>& fn) const {
  const auto pairs = PairsOf(rel);
  const size_t n =
      limit == 0 ? pairs.size() : std::min(limit, pairs.size());
  const bool inverted = IsInverse(rel);
  for (size_t i = 0; i < n; ++i) {
    if (inverted) {
      fn(pairs[i].second, pairs[i].first);
    } else {
      fn(pairs[i].first, pairs[i].second);
    }
  }
}

// ---------------------------------------------------------------------------
// Snapshot I/O
// ---------------------------------------------------------------------------

void TripleStore::SaveTo(storage::SnapshotWriter& writer) const {
  SaveTo(writer, storage::kSnapshotVersion);
}

void TripleStore::SaveTo(storage::SnapshotWriter& writer,
                         uint32_t version) const {
  assert(finalized_);
  assert(version >= storage::kMinSnapshotVersion &&
         version <= storage::kSnapshotVersion);
  writer.WritePodVector(rel_names_);
  writer.WritePodVector(terms_);
  writer.WritePodSpan(index_.offsets());
  writer.WritePodSpan(index_.facts());
  writer.WritePodSpan(index_.pair_offsets());
  writer.WritePodSpan(index_.pairs());
  if (version >= 3) {
    writer.WritePodSpan(index_.dir_offsets());
    writer.WritePodSpan(index_.dir());
    writer.WritePodSpan(tri_.spo_rows());
    writer.WritePodSpan(tri_.pos_rows());
    writer.WritePodSpan(tri_.osp_rows());
  }
}

util::StatusOr<TripleStore> TripleStore::LoadFrom(
    storage::SnapshotReader& reader, TermPool* pool) {
  return LoadFrom(reader, pool, storage::kSnapshotVersion);
}

util::StatusOr<TripleStore> TripleStore::LoadFrom(
    storage::SnapshotReader& reader, TermPool* pool, uint32_t version) {
  TripleStore store(pool);
  storage::Column<uint64_t> offsets;
  storage::Column<Fact> facts;
  storage::Column<uint64_t> pair_offsets;
  storage::Column<TermPair> pairs;
  storage::Column<uint64_t> dir_offsets;
  storage::Column<storage::ColumnarIndex::DirEntry> dir;
  storage::Column<storage::TriRow> spo;
  storage::Column<storage::TriRow> pos;
  storage::Column<storage::TriRow> osp;
  reader.ReadPodVector(&store.rel_names_);
  reader.ReadPodVector(&store.terms_);
  reader.ReadPodColumn(&offsets);
  reader.ReadPodColumn(&facts);
  reader.ReadPodColumn(&pair_offsets);
  reader.ReadPodColumn(&pairs);
  if (version >= 3) {
    reader.ReadPodColumn(&dir_offsets);
    reader.ReadPodColumn(&dir);
    reader.ReadPodColumn(&spo);
    reader.ReadPodColumn(&pos);
    reader.ReadPodColumn(&osp);
  }
  if (!reader.ok()) {
    return util::DataLossError("truncated triple store section");
  }

  const size_t pool_size = pool->size();
  auto valid_term = [pool_size](TermId t) {
    return static_cast<size_t>(t) < pool_size;
  };
  for (TermId name : store.rel_names_) {
    if (!valid_term(name)) {
      return util::DataLossError("relation name out of pool range");
    }
  }
  for (TermId t : store.terms_) {
    if (!valid_term(t)) {
      return util::DataLossError("term id out of pool range");
    }
  }
  for (const Fact& f : facts) {
    if (!valid_term(f.other)) {
      return util::DataLossError("fact object out of pool range");
    }
  }
  for (const TermPair& p : pairs) {
    if (!valid_term(p.first) || !valid_term(p.second)) {
      return util::DataLossError("pair term out of pool range");
    }
  }
  if (offsets.size() != store.terms_.size() + 1 ||
      pair_offsets.size() != store.rel_names_.size() + 1) {
    return util::DataLossError("inconsistent triple store columns");
  }
  if (version >= 3) {
    if (!storage::ColumnarIndex::FromColumns(
            std::move(offsets), std::move(facts), std::move(pair_offsets),
            std::move(pairs), std::move(dir_offsets), std::move(dir),
            reader.view_owner(), &store.index_)) {
      return util::DataLossError("inconsistent triple store columns");
    }
    if (!storage::TriIndex::FromColumns(store.index_, std::move(spo),
                                        std::move(pos), std::move(osp),
                                        reader.view_owner(), &store.tri_)) {
      return util::DataLossError("inconsistent triple-pattern orderings");
    }
  } else {
    if (!storage::ColumnarIndex::FromColumns(
            std::move(offsets), std::move(facts), std::move(pair_offsets),
            std::move(pairs), reader.view_owner(), &store.index_)) {
      return util::DataLossError("inconsistent triple store columns");
    }
    // Downlevel (v2) sections predate the persisted orderings; rebuild them
    // deterministically from the loaded index.
    store.tri_ = storage::TriIndex::Build(store.index_);
  }

  store.rel_index_.reserve(store.rel_names_.size());
  for (size_t i = 0; i < store.rel_names_.size(); ++i) {
    if (!store.rel_index_
             .emplace(store.rel_names_[i], static_cast<RelId>(i + 1))
             .second) {
      return util::DataLossError("duplicate relation name");
    }
  }
  // Every id in terms_ was checked against the pool above, so the dense
  // writes below stay in bounds.
  store.local_index_.assign(pool_size, kNoLocal);
  for (size_t i = 0; i < store.terms_.size(); ++i) {
    uint32_t& local = store.local_index_[store.terms_[i]];
    if (local != kNoLocal) {
      return util::DataLossError("duplicate term in dictionary");
    }
    local = static_cast<uint32_t>(i);
  }
  store.finalized_ = true;
  return store;
}

}  // namespace paris::rdf

#include "paris/rdf/store.h"

#include <algorithm>
#include <cassert>
#include <tuple>
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
  for (const auto& e : kept) {
    result.touched_terms.push_back(terms_[e.owner]);
    // Each novel statement appears once with a positive relation (its
    // inverse half carries the negated id).
    if (e.rel > 0) ++result.num_new_statements;
  }
  std::sort(result.touched_terms.begin(), result.touched_terms.end());
  result.touched_terms.erase(
      std::unique(result.touched_terms.begin(), result.touched_terms.end()),
      result.touched_terms.end());
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
// Triple patterns
// ---------------------------------------------------------------------------

namespace {

using storage::TriplePattern;
using storage::TriPos;
using Slot = TriplePattern::Slot;

bool HasIgnored(const TriplePattern& p) {
  return p.slots[0] == Slot::kIgnored || p.slots[1] == Slot::kIgnored ||
         p.slots[2] == Slot::kIgnored;
}

// The first fact of `facts` (one term's slice, sorted by (rel, other))
// whose relation is positive: inverse halves sort first.
const Fact* FirstForward(std::span<const Fact> facts) {
  return std::partition_point(facts.data(), facts.data() + facts.size(),
                              [](const Fact& f) { return f.rel < 0; });
}

}  // namespace

template <typename Emit>
void TripleStore::ForEachMatch(const TriplePattern& p, Emit&& emit) const {
  const RelId rel = p.rel();
  const TermId s = p.values[0];
  const TermId o = p.values[2];
  const bool has_s = p.bound(TriPos::kSubject);
  const bool has_p = p.bound(TriPos::kRel);
  const bool has_o = p.bound(TriPos::kObject);

  if (!has_s && !has_o) {
    // P: one relation's pairs, by (s, o). Nothing bound: every relation's
    // pairs in turn, by (p, s, o).
    const auto last = static_cast<RelId>(index_.num_relations());
    for (RelId r = has_p ? rel : 1; r <= (has_p ? rel : last); ++r) {
      for (const TermPair& pair : index_.PairsOf(r)) {
        if (!emit(Triple{pair.first, r, pair.second})) return;
      }
    }
    return;
  }
  if (!has_s) {
    const uint32_t lo = PackedLocal(o);
    if (lo == kNoLocal) return;
    if (has_p) {
      // P,O: o's inverse facts of the relation, by s.
      for (const Fact& f : index_.FactsWith(lo, Inverse(rel))) {
        if (!emit(Triple{f.other, rel, o})) return;
      }
      return;
    }
    // O: o's inverse facts. They sort by (-p, s), so walking their
    // relation groups from the last makes p ascend; each group lists s
    // ascending.
    const auto facts = index_.FactsAbout(lo);
    const Fact* end = FirstForward(facts);
    while (end != facts.data()) {
      const RelId group = end[-1].rel;
      const Fact* begin = std::partition_point(
          facts.data(), end, [group](const Fact& f) { return f.rel < group; });
      for (const Fact* f = begin; f != end; ++f) {
        if (!emit(Triple{f->other, Inverse(group), o})) return;
      }
      end = begin;
    }
    return;
  }
  const uint32_t ls = PackedLocal(s);
  if (ls == kNoLocal) return;
  if (has_p) {
    if (has_o) {
      // S,P,O: a point lookup.
      if (index_.Contains(ls, rel, o)) emit(Triple{s, rel, o});
      return;
    }
    // S,P: s's facts of the relation, by o.
    for (const Fact& f : index_.FactsWith(ls, rel)) {
      if (!emit(Triple{s, rel, f.other})) return;
    }
    return;
  }
  // S: s's forward facts, by (p, o). S,O: those whose object is o, so p
  // ascends.
  const auto facts = index_.FactsAbout(ls);
  for (const Fact* f = FirstForward(facts); f != facts.data() + facts.size();
       ++f) {
    if ((!has_o || f->other == o) && !emit(Triple{s, f->rel, f->other})) {
      return;
    }
  }
}

bool TripleStore::Normalize(TriplePattern* p) const {
  assert(finalized_);
  if (!p->bound(TriPos::kRel)) return true;
  if (!IsPackedRel(p->rel())) return false;
  // r⁻¹(s, o) matches exactly the statements r(o, s).
  if (IsInverse(p->rel())) {
    std::swap(p->slots[0], p->slots[2]);
    std::swap(p->values[0], p->values[2]);
    p->values[1] = static_cast<uint32_t>(Inverse(p->rel()));
  }
  return true;
}

size_t TripleStore::Scan(const TriplePattern& pattern, size_t limit,
                         const std::function<void(const Triple&)>& fn) const {
  TriplePattern p = pattern;
  if (!Normalize(&p)) return 0;

  size_t emitted = 0;
  if (!HasIgnored(p)) {
    ForEachMatch(p, [&](const Triple& t) {
      fn(t);
      ++emitted;
      return limit == 0 || emitted < limit;
    });
    return emitted;
  }

  // Project, then collapse: sort by (s, p, o) and drop repeats.
  const bool ignore_s = p.slot(TriPos::kSubject) == Slot::kIgnored;
  const bool ignore_p = p.slot(TriPos::kRel) == Slot::kIgnored;
  const bool ignore_o = p.slot(TriPos::kObject) == Slot::kIgnored;
  std::vector<Triple> rows;
  ForEachMatch(p, [&](Triple t) {
    if (ignore_s) t.subject = kNullTerm;
    if (ignore_p) t.rel = kNullRel;
    if (ignore_o) t.object = kNullTerm;
    rows.push_back(t);
    return true;
  });
  std::sort(rows.begin(), rows.end(), [](const Triple& a, const Triple& b) {
    return std::tie(a.subject, a.rel, a.object) <
           std::tie(b.subject, b.rel, b.object);
  });
  rows.erase(std::unique(rows.begin(), rows.end()), rows.end());
  if (limit != 0 && rows.size() > limit) rows.resize(limit);
  for (const Triple& t : rows) fn(t);
  return rows.size();
}

std::vector<Triple> TripleStore::Collect(const TriplePattern& pattern,
                                         size_t limit) const {
  std::vector<Triple> out;
  Scan(pattern, limit, [&out](const Triple& t) { out.push_back(t); });
  return out;
}

uint64_t TripleStore::Count(const TriplePattern& pattern) const {
  TriplePattern p = pattern;
  if (!Normalize(&p)) return 0;
  if (HasIgnored(p)) return Scan(pattern, 0, [](const Triple&) {});
  const bool has_s = p.bound(TriPos::kSubject);
  const bool has_p = p.bound(TriPos::kRel);
  const bool has_o = p.bound(TriPos::kObject);
  if (!has_s && !has_o) {
    return has_p ? index_.PairsOf(p.rel()).size() : index_.num_triples();
  }
  if (has_s != has_o) {
    // One bound term: its matches are one span of its slice.
    const uint32_t local = PackedLocal(p.values[has_s ? 0 : 2]);
    if (local == kNoLocal) return 0;
    if (has_p) {
      return index_.FactsWith(local, has_s ? p.rel() : Inverse(p.rel()))
          .size();
    }
    const auto facts = index_.FactsAbout(local);
    const Fact* split = FirstForward(facts);
    return has_s ? static_cast<uint64_t>(facts.data() + facts.size() - split)
                 : static_cast<uint64_t>(split - facts.data());
  }
  // S,P,O: a point lookup. S,O: a scan of s's forward facts.
  uint64_t n = 0;
  ForEachMatch(p, [&n](const Triple&) {
    ++n;
    return true;
  });
  return n;
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
  assert(version == storage::kMinSnapshotVersion ||
         version == storage::kSnapshotVersion);
  writer.WritePodVector(rel_names_);
  writer.WritePodVector(terms_);
  writer.WritePodSpan(index_.offsets());
  writer.WritePodSpan(index_.facts());
  writer.WritePodSpan(index_.pair_offsets());
  writer.WritePodSpan(index_.pairs());
  if (version >= 3) {
    writer.WritePodSpan(index_.dir_offsets());
    writer.WritePodSpan(index_.dir());
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
  reader.ReadPodVector(&store.rel_names_);
  reader.ReadPodVector(&store.terms_);
  reader.ReadPodColumn(&offsets);
  reader.ReadPodColumn(&facts);
  reader.ReadPodColumn(&pair_offsets);
  reader.ReadPodColumn(&pairs);
  if (version >= 3) {
    reader.ReadPodColumn(&dir_offsets);
    reader.ReadPodColumn(&dir);
  }
  // v3 went on with three sorted orderings of the triples, 12-byte rows
  // each; v4 dropped them. Read past them (the file checksum covers their
  // bytes) and check only that each holds one row per triple.
  bool orderings_match = true;
  if (version == 3) {
    struct OrderingRow {
      uint32_t a, b, c;
    };
    for (int family = 0; family < 3; ++family) {
      storage::Column<OrderingRow> rows;
      reader.ReadPodColumn(&rows);
      orderings_match = orderings_match && rows.size() == pairs.size();
    }
  }
  if (!reader.ok()) {
    return util::DataLossError("truncated triple store section");
  }
  if (!orderings_match) {
    return util::DataLossError("v3 triple orderings disagree with the pairs");
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
  const bool packed =
      version >= 3
          ? storage::ColumnarIndex::FromColumns(
                std::move(offsets), std::move(facts), std::move(pair_offsets),
                std::move(pairs), std::move(dir_offsets), std::move(dir),
                reader.view_owner(), &store.index_)
          : storage::ColumnarIndex::FromColumns(
                std::move(offsets), std::move(facts), std::move(pair_offsets),
                std::move(pairs), reader.view_owner(), &store.index_);
  if (!packed) return util::DataLossError("inconsistent triple store columns");

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

// Tests for the triple-pattern engine (rdf::TripleStore::Scan over the
// store's columnar index): answers against brute force, the reply order of
// every mask, limits, and out-of-range values; its persistence (snapshot v4
// round trip, v2 and v3 compatibility, corruption); the Session::Query
// facade; and the aligner's byte-identity guarantee over the fast access
// paths (per-term relation directory, packed type index).
#include <gtest/gtest.h>

#include <algorithm>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "paris/api/session.h"
#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/snapshot.h"
#include "paris/storage/tri_index.h"
#include "paris/util/status.h"

namespace paris {
namespace {

using rdf::RelId;
using rdf::TermId;
using rdf::Triple;
using storage::TriplePattern;
using storage::TriPos;

using Slot = TriplePattern::Slot;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

// Canonical comparable form of an emitted match.
using Key = std::tuple<TermId, RelId, TermId>;

Key KeyOf(const Triple& t) { return {t.subject, t.rel, t.object}; }

std::set<Key> KeySet(const std::vector<Triple>& triples) {
  std::set<Key> keys;
  for (const Triple& t : triples) keys.insert(KeyOf(t));
  return keys;
}

std::vector<Key> Keys(const std::vector<Triple>& triples) {
  std::vector<Key> keys;
  for (const Triple& t : triples) keys.push_back(KeyOf(t));
  return keys;
}

// Every actual statement of a store, as positive-relation triples, by
// walking the per-term adjacency directly (independent of the pattern
// engine).
std::vector<Triple> AllTriples(const rdf::TripleStore& store) {
  std::vector<Triple> out;
  for (TermId t : store.terms()) {
    for (const rdf::Fact& f : store.FactsAbout(t)) {
      if (f.rel > 0) out.push_back(Triple{t, f.rel, f.other});
    }
  }
  return out;
}

// Reference semantics for a (positive-relation) pattern: filter by the
// bound positions, null out ignored positions, deduplicate.
std::set<Key> BruteForce(const std::vector<Triple>& all,
                         const TriplePattern& p) {
  std::set<Key> expect;
  for (const Triple& t : all) {
    if (p.bound(TriPos::kSubject) && t.subject != p.values[0]) continue;
    if (p.bound(TriPos::kRel) && t.rel != p.rel()) continue;
    if (p.bound(TriPos::kObject) && t.object != p.values[2]) continue;
    Triple emitted = t;
    if (p.slot(TriPos::kSubject) == Slot::kIgnored) {
      emitted.subject = rdf::kNullTerm;
    }
    if (p.slot(TriPos::kRel) == Slot::kIgnored) emitted.rel = rdf::kNullRel;
    if (p.slot(TriPos::kObject) == Slot::kIgnored) {
      emitted.object = rdf::kNullTerm;
    }
    expect.insert(KeyOf(emitted));
  }
  return expect;
}

// Applies one slot state to one pattern position, binding from `bind`.
void ApplySlot(TriplePattern* p, TriPos pos, Slot state, const Triple& bind) {
  switch (pos) {
    case TriPos::kSubject:
      if (state == Slot::kBound) p->BindSubject(bind.subject);
      if (state == Slot::kIgnored) p->IgnoreSubject();
      break;
    case TriPos::kRel:
      if (state == Slot::kBound) p->BindRel(bind.rel);
      if (state == Slot::kIgnored) p->IgnoreRel();
      break;
    case TriPos::kObject:
      if (state == Slot::kBound) p->BindObject(bind.object);
      if (state == Slot::kIgnored) p->IgnoreObject();
      break;
  }
}

constexpr Slot kStates[] = {Slot::kVariable, Slot::kBound, Slot::kIgnored};

// All 27 variable/bound/ignored combinations, bound values from `seed`.
std::vector<TriplePattern> AllShapes(const Triple& seed) {
  std::vector<TriplePattern> shapes;
  for (Slot s_state : kStates) {
    for (Slot p_state : kStates) {
      for (Slot o_state : kStates) {
        TriplePattern p;
        ApplySlot(&p, TriPos::kSubject, s_state, seed);
        ApplySlot(&p, TriPos::kRel, p_state, seed);
        ApplySlot(&p, TriPos::kObject, o_state, seed);
        shapes.push_back(p);
      }
    }
  }
  return shapes;
}

std::string ShapeName(const TriplePattern& p) {
  std::string name;
  for (Slot slot : p.slots) {
    name += slot == Slot::kVariable ? '?' : slot == Slot::kBound ? 'b' : '_';
  }
  return name;
}

// The value of `t` at one position.
uint32_t At(const Triple& t, TriPos pos) {
  switch (pos) {
    case TriPos::kSubject:
      return t.subject;
    case TriPos::kRel:
      return static_cast<uint32_t>(t.rel);
    case TriPos::kObject:
      return t.object;
  }
  return 0;
}

// The positions an ignore-free, forward pattern's replies ascend by, per
// bound mask (the table in src/paris/storage/README.md). The bound
// positions are fixed, so these free positions order the matches totally.
std::vector<TriPos> ReplyOrder(const TriplePattern& p) {
  const bool s = p.bound(TriPos::kSubject);
  const bool r = p.bound(TriPos::kRel);
  const bool o = p.bound(TriPos::kObject);
  if (s && r) return {TriPos::kObject};
  if (s && o) return {TriPos::kRel};
  if (s) return {TriPos::kRel, TriPos::kObject};
  if (r && o) return {TriPos::kSubject};
  if (r) return {TriPos::kSubject, TriPos::kObject};
  if (o) return {TriPos::kRel, TriPos::kSubject};
  return {TriPos::kRel, TriPos::kSubject, TriPos::kObject};
}

// ---------------------------------------------------------------------------
// Pattern engine vs brute force
// ---------------------------------------------------------------------------

class PatternQueryTest : public ::testing::Test {
 protected:
  // One ontology with enough shape diversity to make every mask
  // interesting: shared objects across relations, repeated (s, o) pairs
  // under different relations, high- and low-degree subjects.
  void Build() {
    ontology::OntologyBuilder b(&pool_, "left");
    for (int i = 0; i < 12; ++i) {
      const std::string e = "l:e" + std::to_string(i);
      b.AddType(e, i % 2 ? "l:Person" : "l:Artist");
      b.AddLiteralFact(e, "l:name", "Name " + std::to_string(i));
      b.AddLiteralFact(e, "l:city", "City " + std::to_string(i % 3));
      b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 1) % 12));
      b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 5) % 12));
      b.AddFact(e, "l:worksAt", "l:e" + std::to_string((i + 1) % 12));
    }
    auto built = b.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    onto_.emplace(std::move(built).value());
    all_ = AllTriples(onto_->store());
    ASSERT_GT(all_.size(), 40u);
  }

  const rdf::TripleStore& store() const { return onto_->store(); }

  // Real statements spread across the store.
  std::vector<Triple> Seeds() const {
    return {all_.front(), all_[all_.size() / 3], all_[2 * all_.size() / 3],
            all_.back()};
  }

  rdf::TermPool pool_;
  std::optional<ontology::Ontology> onto_;
  std::vector<Triple> all_;
};

TEST_F(PatternQueryTest, AllSlotCombinationsMatchBruteForce) {
  Build();
  // All 27 variable/bound/ignored combinations, with bound values drawn
  // from several real triples (spread across the store) plus one absent
  // binding. Covers the 8 bound masks, every ignored-dedup shape —
  // including the non-adjacent ones like (bound s, ignored p, variable o)
  // — and empty results.
  std::vector<Triple> seeds = {all_.front(), all_[all_.size() / 3],
                               all_[2 * all_.size() / 3], all_.back()};
  seeds.push_back(Triple{all_.front().subject, all_.back().rel,
                         static_cast<TermId>(pool_.size() + 5)});
  const Slot kStates[] = {Slot::kVariable, Slot::kBound, Slot::kIgnored};
  for (const Triple& seed : seeds) {
    for (Slot s_state : kStates) {
      for (Slot p_state : kStates) {
        for (Slot o_state : kStates) {
          TriplePattern p;
          ApplySlot(&p, TriPos::kSubject, s_state, seed);
          ApplySlot(&p, TriPos::kRel, p_state, seed);
          ApplySlot(&p, TriPos::kObject, o_state, seed);
          const std::vector<Triple> got = store().Collect(p);
          const std::set<Key> expect = BruteForce(all_, p);
          EXPECT_EQ(KeySet(got), expect)
              << "slots=" << static_cast<int>(s_state)
              << static_cast<int>(p_state) << static_cast<int>(o_state)
              << " seed=(" << seed.subject << "," << seed.rel << ","
              << seed.object << ")";
          // Matches are emitted exactly once each.
          EXPECT_EQ(got.size(), expect.size());
          // Count agrees with the scan for every shape.
          EXPECT_EQ(store().Count(p), expect.size());
        }
      }
    }
  }
}

TEST_F(PatternQueryTest, InversePatternNormalizesToForwardScan) {
  Build();
  const Triple seed = all_[all_.size() / 2];
  // -r with subject/object swapped is the same statement set.
  const auto forward = store().Collect(
      TriplePattern().BindSubject(seed.subject).BindRel(seed.rel));
  const auto inverse = store().Collect(
      TriplePattern().BindRel(rdf::Inverse(seed.rel)).BindObject(seed.subject));
  EXPECT_EQ(KeySet(forward), KeySet(inverse));
  ASSERT_FALSE(forward.empty());
  // Emitted triples are actual positive-relation statements either way.
  for (const Triple& t : inverse) {
    EXPECT_GT(t.rel, 0);
    EXPECT_TRUE(onto_->store().Contains(t.subject, t.rel, t.object));
  }
  // Fully-bound inverse probe.
  EXPECT_EQ(store().Count(TriplePattern()
                              .BindSubject(seed.object)
                              .BindRel(rdf::Inverse(seed.rel))
                              .BindObject(seed.subject)),
            1u);
}

TEST_F(PatternQueryTest, ReplyOrderFollowsTheAccessPath) {
  Build();
  for (const Triple& seed : Seeds()) {
    for (const TriplePattern& p : AllShapes(seed)) {
      const std::vector<Triple> got = store().Collect(p);
      if (std::find(std::begin(p.slots), std::end(p.slots), Slot::kIgnored) !=
          std::end(p.slots)) {
        // Projected patterns reply distinct rows sorted by (s, p, o).
        EXPECT_TRUE(std::adjacent_find(got.begin(), got.end(),
                                       [](const Triple& a, const Triple& b) {
                                         return !(KeyOf(a) < KeyOf(b));
                                       }) == got.end())
            << ShapeName(p);
        continue;
      }
      // Ignore-free patterns reply in their mask's order.
      std::vector<Triple> expect;
      for (const Triple& t : all_) {
        if (!BruteForce({t}, p).empty()) expect.push_back(t);
      }
      const std::vector<TriPos> order = ReplyOrder(p);
      std::sort(expect.begin(), expect.end(),
                [&order](const Triple& a, const Triple& b) {
                  for (TriPos pos : order) {
                    if (At(a, pos) != At(b, pos)) {
                      return At(a, pos) < At(b, pos);
                    }
                  }
                  return false;
                });
      EXPECT_EQ(Keys(got), Keys(expect)) << ShapeName(p);
    }
  }
  // A bound inverse relation replies in the order of its forward twin.
  const Triple seed = all_[all_.size() / 2];
  EXPECT_EQ(Keys(store().Collect(TriplePattern()
                                     .BindSubject(seed.object)
                                     .BindRel(rdf::Inverse(seed.rel)))),
            Keys(store().Collect(
                TriplePattern().BindRel(seed.rel).BindObject(seed.object))));
}

TEST_F(PatternQueryTest, LimitTruncatesDeterministically) {
  Build();
  const TriplePattern all;
  const std::vector<Triple> full = store().Collect(all);
  ASSERT_EQ(full.size(), all_.size());
  for (size_t limit : {size_t{1}, size_t{7}, full.size(), full.size() + 10}) {
    const std::vector<Triple> part = store().Collect(all, limit);
    ASSERT_EQ(part.size(), std::min(limit, full.size()));
    for (size_t i = 0; i < part.size(); ++i) EXPECT_EQ(part[i], full[i]);
  }
  // Every mask: limit k returns the first k rows of the unlimited reply.
  for (const Triple& seed : Seeds()) {
    for (const TriplePattern& p : AllShapes(seed)) {
      const std::vector<Key> whole = Keys(store().Collect(p));
      for (size_t limit : {size_t{1}, size_t{2}, size_t{5}, whole.size(),
                           whole.size() + 1}) {
        if (limit == 0) continue;
        const std::vector<Key> part = Keys(store().Collect(p, limit));
        const size_t expect = std::min(limit, whole.size());
        ASSERT_EQ(part.size(), expect) << ShapeName(p) << " limit=" << limit;
        EXPECT_TRUE(std::equal(part.begin(), part.end(), whole.begin()))
            << ShapeName(p) << " limit=" << limit;
        EXPECT_EQ(store().Scan(p, limit, [](const Triple&) {}), expect);
      }
    }
  }
}

TEST_F(PatternQueryTest, OutOfRangeValuesMatchNothing) {
  Build();
  const Triple seed = all_[all_.size() / 2];
  const auto num_relations = static_cast<RelId>(store().num_relations());
  // In the pool, but in no statement of this store.
  const TermId absent = pool_.InternIri("l:absent");
  const TermId bad_terms[] = {static_cast<TermId>(pool_.size() + 5), absent,
                              UINT32_MAX};
  const RelId bad_rels[] = {rdf::kNullRel, num_relations + 1,
                            rdf::Inverse(num_relations + 1), INT32_MIN};
  const auto expect_empty = [this](const TriplePattern& p,
                                   const std::string& what) {
    EXPECT_TRUE(store().Collect(p).empty()) << what << " " << ShapeName(p);
    EXPECT_EQ(store().Collect(p, 1).size(), 0u) << what << " " << ShapeName(p);
    EXPECT_EQ(store().Count(p), 0u) << what << " " << ShapeName(p);
  };
  // The relation slot's other states, including a bound inverse relation
  // (normalized by swapping the subject and object slots).
  const auto rel_slot = [&seed](TriplePattern* p, int state) {
    if (state == 1) p->BindRel(seed.rel);
    if (state == 2) p->BindRel(rdf::Inverse(seed.rel));
    if (state == 3) p->IgnoreRel();
  };
  for (Slot a : kStates) {
    for (Slot b : kStates) {
      for (RelId bad : bad_rels) {
        TriplePattern p;
        ApplySlot(&p, TriPos::kSubject, a, seed);
        ApplySlot(&p, TriPos::kObject, b, seed);
        expect_empty(p.BindRel(bad), "relation " + std::to_string(bad));
      }
    }
    for (int rel_state = 0; rel_state < 4; ++rel_state) {
      for (TermId bad : bad_terms) {
        const std::string what = "term " + std::to_string(bad);
        TriplePattern subject;
        subject.BindSubject(bad);
        rel_slot(&subject, rel_state);
        ApplySlot(&subject, TriPos::kObject, a, seed);
        expect_empty(subject, what);
        TriplePattern object;
        ApplySlot(&object, TriPos::kSubject, a, seed);
        rel_slot(&object, rel_state);
        expect_empty(object.BindObject(bad), what);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Delta maintenance
// ---------------------------------------------------------------------------

TEST_F(PatternQueryTest, MergedDeltaIsVisibleToEveryMask) {
  Build();
  std::vector<rdf::ParsedTriple> delta;
  auto fact = [](const std::string& s, const std::string& p,
                 const std::string& o, bool literal = false) {
    rdf::ParsedTriple t;
    t.subject = s;
    t.predicate = p;
    t.object = o;
    t.object_is_literal = literal;
    return t;
  };
  delta.push_back(fact("l:e0", "l:knows", "l:e9"));
  delta.push_back(fact("l:e99", "l:knows", "l:e0"));  // new instance
  delta.push_back(fact("l:e99", "l:name", "Name 99", /*literal=*/true));
  delta.push_back(fact("l:e0", "l:knows", "l:e1"));  // duplicate: dropped
  auto summary = onto_->ApplyDelta(delta);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->num_new_statements, 3u);

  // Queries see the merged index: every shape around the new statements
  // equals brute force over the merged adjacency.
  all_ = AllTriples(onto_->store());
  EXPECT_EQ(store().Count(TriplePattern()), onto_->num_triples());
  const TermId e99 = *pool_.Find("l:e99", rdf::TermKind::kIri);
  for (const Triple& seed : all_) {
    if (seed.subject != e99 && seed.object != e99) continue;
    for (const TriplePattern& p : AllShapes(seed)) {
      EXPECT_EQ(KeySet(store().Collect(p)), BruteForce(all_, p))
          << ShapeName(p);
    }
  }
}

// ---------------------------------------------------------------------------
// Persistence: v4 round trip, v2 and v3 compatibility, corruption
// ---------------------------------------------------------------------------

class QuerySnapshotTest : public PatternQueryTest {
 protected:
  // Second ontology so the pair snapshot has distinct sides.
  void BuildPair() {
    Build();
    ontology::OntologyBuilder rb(&pool_, "right");
    for (int i = 0; i < 8; ++i) {
      const std::string e = "r:f" + std::to_string(i);
      rb.AddType(e, "r:Entity");
      rb.AddLiteralFact(e, "r:label", "Name " + std::to_string(i));
      rb.AddFact(e, "r:contact", "r:f" + std::to_string((i + 3) % 8));
    }
    auto built = rb.Build();
    ASSERT_TRUE(built.ok()) << built.status().ToString();
    right_.emplace(std::move(built).value());
  }

  // Every shape around two statements of `want` gives the same replies,
  // in the same order, from `got`, and those equal brute force.
  void ExpectQueriesEqual(const ontology::Ontology& got,
                          const ontology::Ontology& want) {
    const std::vector<Triple> all = AllTriples(want.store());
    ASSERT_EQ(got.num_triples(), want.num_triples());
    for (const Triple& seed : {all.front(), all.back()}) {
      for (const TriplePattern& p : AllShapes(seed)) {
        const std::vector<Triple> replies = got.store().Collect(p);
        EXPECT_EQ(KeySet(replies), BruteForce(all, p)) << ShapeName(p);
        EXPECT_EQ(Keys(replies), Keys(want.store().Collect(p)))
            << ShapeName(p);
      }
    }
  }

  // Loads `path` in both modes and checks both sides against the pair.
  void ExpectLoadsAsPair(const std::string& path) {
    for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                            ontology::SnapshotLoadMode::kMmap}) {
      rdf::TermPool fresh;
      auto loaded = ontology::LoadAlignmentSnapshot(path, &fresh, mode);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_EQ(loaded->left.store().index().zero_copy(),
                mode == ontology::SnapshotLoadMode::kMmap);
      ExpectQueriesEqual(loaded->left, *onto_);
      ExpectQueriesEqual(loaded->right, *right_);
    }
  }

  // Flips one byte at a time across the whole file, in strides, and
  // requires every flip to be rejected in both load modes.
  void ExpectByteFlipsRejected(const std::string& path) {
    const std::string bytes = ReadFile(path);
    ASSERT_FALSE(bytes.empty()) << path;
    const std::string bad_path = TempPath("query_flipped.snap");
    for (size_t offset = 0; offset < bytes.size();
         offset += 1 + bytes.size() / 61) {
      std::string mutated = bytes;
      mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5a);
      {
        std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
        out << mutated;
      }
      for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                              ontology::SnapshotLoadMode::kMmap}) {
        rdf::TermPool scratch;
        EXPECT_FALSE(
            ontology::LoadAlignmentSnapshot(bad_path, &scratch, mode).ok())
            << path << ": byte flip at offset " << offset
            << " was not rejected";
      }
    }
    std::remove(bad_path.c_str());
  }

  std::optional<ontology::Ontology> right_;
};

TEST_F(QuerySnapshotTest, V4RoundTripsStreamAndMmap) {
  BuildPair();
  const std::string path = TempPath("query_v4.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_).ok());
  EXPECT_EQ(ReadFile(path).substr(8, 4),
            std::string("\x04\x00\x00\x00", 4));
  ExpectLoadsAsPair(path);

  // Delta ingestion detaches the zero-copy views, and queries see the
  // merged statements.
  rdf::TermPool mmap_pool;
  auto mapped = ontology::LoadAlignmentSnapshot(
      path, &mmap_pool, ontology::SnapshotLoadMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  ASSERT_TRUE(mapped->left.store().index().zero_copy());
  std::vector<rdf::ParsedTriple> delta(1);
  delta[0].subject = "l:e0";
  delta[0].predicate = "l:knows";
  delta[0].object = "l:e7";
  ASSERT_TRUE(mapped->left.ApplyDelta(delta).ok());
  EXPECT_FALSE(mapped->left.store().index().zero_copy());
  const std::vector<Triple> merged = AllTriples(mapped->left.store());
  const TriplePattern about_e0 = TriplePattern().BindSubject(
      *mmap_pool.Find("l:e0", rdf::TermKind::kIri));
  EXPECT_EQ(KeySet(mapped->left.store().Collect(about_e0)),
            BruteForce(merged, about_e0));
  std::remove(path.c_str());
}

TEST_F(QuerySnapshotTest, V2SnapshotLoads) {
  BuildPair();
  const std::string path = TempPath("query_v2.snap");
  // Write the oldest format the writer still produces: no directory.
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_,
                                              storage::kMinSnapshotVersion)
                  .ok());
  // A v2 file is strictly smaller than the same pair at v4.
  const std::string v4_path = TempPath("query_v2_as_v4.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(v4_path, *onto_, *right_).ok());
  EXPECT_LT(ReadFile(path).size(), ReadFile(v4_path).size());

  ExpectLoadsAsPair(path);
  ExpectByteFlipsRejected(path);
  std::remove(path.c_str());
  std::remove(v4_path.c_str());
}

// tests/golden/query_pair_v3.snapshot is BuildPair()'s pair as the v3
// writer wrote it, orderings included, before v4 dropped them.
TEST_F(QuerySnapshotTest, V3SnapshotFromTheOldWriterLoads) {
  BuildPair();
  const std::string path =
      std::string(PARIS_GOLDEN_DIR) + "/query_pair_v3.snapshot";
  const std::string bytes = ReadFile(path);
  ASSERT_EQ(bytes.size(), 7852u) << path;
  ASSERT_EQ(bytes.substr(8, 4), std::string("\x03\x00\x00\x00", 4));

  ExpectLoadsAsPair(path);
  ExpectByteFlipsRejected(path);

  // Re-saving the loaded pair writes v4, without the orderings.
  rdf::TermPool fresh;
  auto loaded = ontology::LoadAlignmentSnapshot(path, &fresh);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const std::string v4_path = TempPath("query_v3_as_v4.snap");
  ASSERT_TRUE(
      ontology::SaveAlignmentSnapshot(v4_path, loaded->left, loaded->right)
          .ok());
  EXPECT_LT(ReadFile(v4_path).size(), bytes.size());
  std::remove(v4_path.c_str());
}

// A v3 store section is v4's plus three orderings of 12-byte rows. The
// loader reads past them, but each must hold one row per triple.
TEST_F(QuerySnapshotTest, V3OrderingCountsMustMatchTripleCount) {
  Build();
  struct OrderingRow {
    uint32_t a, b, c;
  };
  const size_t n = store().num_triples();
  const auto section = [this](size_t spo, size_t pos, size_t osp) {
    std::ostringstream raw;
    storage::SnapshotWriter writer(raw);
    storage::WriteSnapshotHeader(writer, raw, 3);
    store().SaveTo(writer, storage::kSnapshotVersion);
    for (size_t rows : {spo, pos, osp}) {
      writer.WritePodVector(std::vector<OrderingRow>(rows));
    }
    return raw.str();
  };
  struct Case {
    size_t spo, pos, osp;
    bool ok;
  };
  const Case cases[] = {{n, n, n, true},
                        {n - 1, n, n, false},
                        {n, n + 1, n, false},
                        {n, n, 0, false}};
  for (const Case& c : cases) {
    const std::string bytes = section(c.spo, c.pos, c.osp);
    const std::string where = "counts " + std::to_string(c.spo) + "/" +
                              std::to_string(c.pos) + "/" +
                              std::to_string(c.osp);
    // Streaming: the caller consumes the magic before the reader.
    std::istringstream in(bytes.substr(sizeof(storage::kSnapshotMagic)));
    storage::SnapshotReader streamed(in);
    // Memory-backed: the reader starts after the magic.
    storage::SnapshotReader mapped(
        std::as_bytes(std::span(bytes.data(), bytes.size())));
    for (storage::SnapshotReader* reader : {&streamed, &mapped}) {
      ASSERT_EQ(reader->ReadU32(), 3u);
      auto loaded = rdf::TripleStore::LoadFrom(*reader, &pool_, 3);
      if (c.ok) {
        ASSERT_TRUE(loaded.ok()) << where << ": " << loaded.status().ToString();
        EXPECT_EQ(loaded->num_triples(), n);
        EXPECT_EQ(KeySet(loaded->Collect({})), KeySet(all_));
      } else {
        ASSERT_FALSE(loaded.ok()) << where;
        EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
            << where << ": " << loaded.status().ToString();
      }
    }
  }
}

TEST_F(QuerySnapshotTest, UnsupportedWriteVersionRejected) {
  BuildPair();
  const std::string path = TempPath("query_bad_version.snap");
  // v3 loads but is no longer written: its orderings are gone.
  for (uint32_t version : {uint32_t{0}, uint32_t{1}, uint32_t{3},
                           storage::kSnapshotVersion + 1}) {
    const auto status =
        ontology::SaveAlignmentSnapshot(path, *onto_, *right_, version);
    EXPECT_EQ(status.code(), util::StatusCode::kInvalidArgument)
        << "version=" << version;
  }
}

TEST_F(QuerySnapshotTest, CorruptTriColumnsRejected) {
  BuildPair();
  const std::string path = TempPath("query_corrupt_base.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *onto_, *right_).ok());
  const std::string bytes = ReadFile(path);
  // Flip bytes across the second half of the file — where the left
  // section's relation directory and the right section live — and require
  // every flip to be caught (section checksum or FromColumns validation).
  const std::string bad_path = TempPath("query_corrupt.snap");
  for (size_t offset = bytes.size() / 2; offset < bytes.size();
       offset += 1 + bytes.size() / 31) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x3c);
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                            ontology::SnapshotLoadMode::kMmap}) {
      rdf::TermPool scratch;
      EXPECT_FALSE(
          ontology::LoadAlignmentSnapshot(bad_path, &scratch, mode).ok())
          << "byte flip at offset " << offset << " was not rejected";
    }
  }
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Session facade
// ---------------------------------------------------------------------------

TEST(SessionQueryTest, RequiresLoadedOntologies) {
  api::Session session;
  const auto result =
      session.Query(api::Session::DeltaSide::kLeft, TriplePattern());
  EXPECT_EQ(result.status().code(), util::StatusCode::kFailedPrecondition);
}

TEST(SessionQueryTest, QueriesBothSidesThroughFacade) {
  rdf::TermPool pool;  // unused; Session owns its pool internally
  const std::string left_path = TempPath("session_query_left.nt");
  const std::string right_path = TempPath("session_query_right.nt");
  {
    std::ofstream out(left_path);
    out << "<l:a> <l:knows> <l:b> .\n<l:b> <l:knows> <l:c> .\n";
  }
  {
    std::ofstream out(right_path);
    out << "<r:x> <r:contact> <r:y> .\n";
  }
  api::Session session;
  ASSERT_TRUE(session.LoadFromFiles(left_path, right_path).ok());

  auto left = session.Query(api::Session::DeltaSide::kLeft, TriplePattern());
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  EXPECT_EQ(left->size(), 2u);
  EXPECT_EQ(KeySet(*left), KeySet(session.left().store().Collect({})));

  auto right =
      session.Query(api::Session::DeltaSide::kRight, TriplePattern(), 1);
  ASSERT_TRUE(right.ok()) << right.status().ToString();
  EXPECT_EQ(right->size(), 1u);
  std::remove(left_path.c_str());
  std::remove(right_path.c_str());
}

// ---------------------------------------------------------------------------
// Aligner byte-identity over the new access paths
// ---------------------------------------------------------------------------

// The per-term relation directory (negative evidence) and the packed type
// index (class pass) are pure access-path swaps: with negative evidence on,
// results must be bit-identical across thread counts and shard layouts.
TEST(QueryFastPathTest, AlignerByteIdenticalAcrossThreadsAndShards) {
  rdf::TermPool pool;
  auto build = [&pool](const std::string& ns, const std::string& label_rel,
                       const std::string& link_rel) {
    ontology::OntologyBuilder b(&pool, ns);
    for (int i = 0; i < 24; ++i) {
      const std::string e = ns + ":e" + std::to_string(i);
      b.AddType(e, ns + (i % 2 ? ":Person" : ":Artist"));
      b.AddLiteralFact(e, ns + ":" + label_rel, "Name " + std::to_string(i));
      b.AddLiteralFact(e, ns + ":city", "City " + std::to_string(i % 4));
      b.AddFact(e, ns + ":" + link_rel,
                ns + ":e" + std::to_string((i + 1) % 24));
      b.AddFact(e, ns + ":emp", ns + ":e" + std::to_string((i + 7) % 24));
    }
    return b.Build();
  };
  auto left = build("l", "name", "knows");
  ASSERT_TRUE(left.ok()) << left.status().ToString();
  auto right = build("r", "label", "contact");
  ASSERT_TRUE(right.ok()) << right.status().ToString();

  core::AlignmentConfig base;
  base.max_iterations = 4;
  base.use_negative_evidence = true;

  std::optional<core::AlignmentResult> reference;
  for (size_t shards : {size_t{7}, size_t{64}}) {
    for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
      core::AlignmentConfig config = base;
      config.num_threads = threads;
      config.num_shards = shards;
      core::AlignmentResult result = core::Aligner(*left, *right, config).Run();
      if (!reference.has_value()) {
        reference.emplace(std::move(result));
        continue;
      }
      ASSERT_EQ(result.instances.num_left_aligned(),
                reference->instances.num_left_aligned())
          << "threads=" << threads << " shards=" << shards;
      reference->instances.ForEachMaxOfLeft([&](TermId l, const auto& c) {
        const auto* other = result.instances.MaxOfLeft(l);
        ASSERT_NE(other, nullptr) << "threads=" << threads;
        EXPECT_EQ(other->other, c.other);
        EXPECT_EQ(other->prob, c.prob)
            << "threads=" << threads << " shards=" << shards;
      });
      const auto& expect_entries = reference->relations.Entries();
      const auto& got_entries = result.relations.Entries();
      ASSERT_EQ(got_entries.size(), expect_entries.size());
      for (size_t i = 0; i < expect_entries.size(); ++i) {
        EXPECT_EQ(got_entries[i].score, expect_entries[i].score)
            << "threads=" << threads << " shards=" << shards;
      }
      ASSERT_EQ(result.classes.entries().size(),
                reference->classes.entries().size());
      for (size_t i = 0; i < reference->classes.entries().size(); ++i) {
        EXPECT_EQ(result.classes.entries()[i].score,
                  reference->classes.entries()[i].score);
      }
    }
  }
}

}  // namespace
}  // namespace paris

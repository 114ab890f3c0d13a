#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <optional>
#include <ranges>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/store.h"
#include "paris/rdf/term.h"
#include "paris/rdf/triple.h"
#include "paris/storage/columnar_index.h"
#include "paris/storage/snapshot.h"
#include "paris/util/status.h"
#include "paris/util/thread_pool.h"

namespace paris {
namespace {

using rdf::Fact;
using rdf::Inverse;
using rdf::RelId;
using rdf::TermId;
using rdf::TermPair;
using storage::ColumnarIndex;

// ---------------------------------------------------------------------------
// ColumnarIndex
// ---------------------------------------------------------------------------

TEST(ColumnarIndexTest, BuildPacksSortedCsr) {
  // Local terms 0..2, relations 1..2; entries deliberately unsorted and with
  // a duplicate.
  const std::vector<TermId> terms = {100, 200, 300};
  std::vector<ColumnarIndex::Entry> entries = {
      {0, 2, 300}, {0, 1, 200}, {0, 1, 200}, {0, -1, 300},
      {1, -1, 100}, {2, 1, 100}, {2, 2, 100},
  };
  ColumnarIndex index =
      ColumnarIndex::Build(terms, /*num_relations=*/2, std::move(entries));

  EXPECT_EQ(index.num_terms(), 3u);
  EXPECT_EQ(index.num_relations(), 2u);
  EXPECT_EQ(index.num_facts(), 6u);

  auto facts0 = index.FactsAbout(0);
  ASSERT_EQ(facts0.size(), 3u);
  EXPECT_EQ(facts0[0], (Fact{-1, 300}));
  EXPECT_EQ(facts0[1], (Fact{1, 200}));
  EXPECT_EQ(facts0[2], (Fact{2, 300}));

  EXPECT_EQ(index.FactsAbout(1).size(), 1u);
  EXPECT_EQ(index.FactsAbout(2).size(), 2u);
}

TEST(ColumnarIndexTest, FactsWithBinarySearchesRelRange) {
  const std::vector<TermId> terms = {10};
  std::vector<ColumnarIndex::Entry> entries;
  for (TermId o = 0; o < 5; ++o) entries.push_back({0, 1, 100 + o});
  for (TermId o = 0; o < 3; ++o) entries.push_back({0, 2, 200 + o});
  ColumnarIndex index = ColumnarIndex::Build(terms, 2, std::move(entries));

  EXPECT_EQ(index.FactsWith(0, 1).size(), 5u);
  EXPECT_EQ(index.FactsWith(0, 2).size(), 3u);
  EXPECT_TRUE(index.FactsWith(0, -1).empty());
  for (const Fact& f : index.FactsWith(0, 2)) EXPECT_EQ(f.rel, 2);
}

TEST(ColumnarIndexTest, ObjectsOfReturnsSortedColumnSpan) {
  const std::vector<TermId> terms = {10};
  std::vector<ColumnarIndex::Entry> entries = {
      {0, 1, 9}, {0, 1, 3}, {0, 1, 7}, {0, 2, 1}};
  ColumnarIndex index = ColumnarIndex::Build(terms, 2, std::move(entries));

  auto objects = index.ObjectsOf(0, 1);
  ASSERT_EQ(objects.size(), 3u);
  EXPECT_EQ(objects[0], 3u);
  EXPECT_EQ(objects[1], 7u);
  EXPECT_EQ(objects[2], 9u);
  // The span aliases the packed object column — no copy.
  EXPECT_EQ(objects.data() + 3, index.ObjectsOf(0, 2).data());
  EXPECT_TRUE(index.ObjectsOf(0, 3).empty());
}

TEST(ColumnarIndexTest, ContainsAndPairs) {
  const std::vector<TermId> terms = {50, 40};
  std::vector<ColumnarIndex::Entry> entries = {
      {0, 1, 40}, {1, -1, 50}, {1, 1, 50}, {0, -1, 40}};
  ColumnarIndex index = ColumnarIndex::Build(terms, 1, std::move(entries));

  EXPECT_TRUE(index.Contains(0, 1, 40));
  EXPECT_TRUE(index.Contains(1, -1, 50));
  EXPECT_FALSE(index.Contains(0, 1, 50));
  EXPECT_EQ(index.num_triples(), 2u);

  // POS pairs sorted by (first, second): (40,50) before (50,40).
  auto pairs = index.PairsOf(1);
  ASSERT_EQ(pairs.size(), 2u);
  EXPECT_EQ(pairs[0], (TermPair{40, 50}));
  EXPECT_EQ(pairs[1], (TermPair{50, 40}));
}

TEST(ColumnarIndexTest, FromColumnsRejectsInconsistentColumns) {
  ColumnarIndex out;
  // Offsets not ending at facts.size().
  EXPECT_FALSE(ColumnarIndex::FromColumns({0, 2}, {Fact{1, 5}}, {0, 0}, {},
                                          &out));
  // Non-monotone offsets.
  EXPECT_FALSE(ColumnarIndex::FromColumns(
      {0, 2, 1}, {Fact{1, 5}, Fact{1, 6}}, {0, 0}, {}, &out));
  // Unsorted adjacency slice.
  EXPECT_FALSE(ColumnarIndex::FromColumns(
      {0, 2}, {Fact{2, 5}, Fact{1, 6}}, {0, 0, 0}, {}, &out));
  // Null relation id in a fact.
  EXPECT_FALSE(
      ColumnarIndex::FromColumns({0, 1}, {Fact{0, 5}}, {0, 0}, {}, &out));
  // Relation id beyond the registry.
  EXPECT_FALSE(
      ColumnarIndex::FromColumns({0, 1}, {Fact{7, 5}}, {0, 0}, {}, &out));
  // Unsorted pair range.
  EXPECT_FALSE(ColumnarIndex::FromColumns(
      {0, 0}, {}, {0, 2}, {TermPair{2, 2}, TermPair{1, 1}}, &out));
  // A consistent empty index is fine.
  EXPECT_TRUE(ColumnarIndex::FromColumns({0}, {}, {0}, {}, &out));
}

// A pool-sharded Finalize must pack the exact same index as a serial one.
TEST(ColumnarIndexTest, ParallelFinalizeMatchesSerial) {
  auto populate = [](rdf::TermPool* pool, rdf::TripleStore* store) {
    const RelId knows = store->InternRelation(pool->InternIri("ex:knows"));
    const RelId likes = store->InternRelation(pool->InternIri("ex:likes"));
    // Skewed: term 0 is a hub with most of the statements.
    std::vector<TermId> ids;
    for (int i = 0; i < 50; ++i) {
      ids.push_back(pool->InternIri("ex:t" + std::to_string(i)));
    }
    for (int i = 1; i < 50; ++i) {
      store->Add(ids[0], knows, ids[static_cast<size_t>(i)]);
      store->Add(ids[0], likes, ids[static_cast<size_t>((i * 7) % 50)]);
      store->Add(ids[static_cast<size_t>(i)], knows,
                 ids[static_cast<size_t>((i * 3) % 50)]);
      store->Add(ids[0], knows, ids[static_cast<size_t>(i)]);  // duplicate
    }
  };

  rdf::TermPool pool_serial;
  rdf::TripleStore serial(&pool_serial);
  populate(&pool_serial, &serial);
  serial.Finalize();

  rdf::TermPool pool_parallel;
  rdf::TripleStore parallel(&pool_parallel);
  populate(&pool_parallel, &parallel);
  paris::util::ThreadPool workers(4);
  parallel.Finalize(&workers);

  const auto& a = serial.index();
  const auto& b = parallel.index();
  ASSERT_TRUE(std::ranges::equal(a.offsets(), b.offsets()));
  ASSERT_TRUE(std::ranges::equal(a.facts(), b.facts()));
  ASSERT_TRUE(std::ranges::equal(a.objects(), b.objects()));
  ASSERT_TRUE(std::ranges::equal(a.pair_offsets(), b.pair_offsets()));
  ASSERT_TRUE(std::ranges::equal(a.pairs(), b.pairs()));
}

// ---------------------------------------------------------------------------
// Store snapshot round-trip
// ---------------------------------------------------------------------------

class StoreSnapshotTest : public ::testing::Test {
 protected:
  // A store with two relations, literals, inverse-added facts, duplicates.
  static void Populate(rdf::TermPool* pool, rdf::TripleStore* store) {
    const TermId alice = pool->InternIri("ex:alice");
    const TermId bob = pool->InternIri("ex:bob");
    const TermId carol = pool->InternIri("ex:carol");
    const TermId name = pool->InternLiteral("Alice");
    const RelId knows = store->InternRelation(pool->InternIri("ex:knows"));
    const RelId label = store->InternRelation(pool->InternIri("ex:label"));
    store->Add(alice, knows, bob);
    store->Add(alice, knows, carol);
    store->Add(alice, knows, bob);  // duplicate
    store->Add(bob, Inverse(knows), carol);
    store->Add(alice, label, name);
    store->Finalize();
  }

  static void ExpectDeepEqual(const rdf::TripleStore& a,
                              const rdf::TripleStore& b) {
    ASSERT_EQ(a.num_relations(), b.num_relations());
    for (RelId r = 1; r <= static_cast<RelId>(a.num_relations()); ++r) {
      EXPECT_EQ(a.relation_name(r), b.relation_name(r));
      auto pa = a.PairsOf(r);
      auto pb = b.PairsOf(r);
      ASSERT_EQ(pa.size(), pb.size());
      for (size_t i = 0; i < pa.size(); ++i) EXPECT_EQ(pa[i], pb[i]);
    }
    ASSERT_EQ(a.terms().size(), b.terms().size());
    EXPECT_EQ(a.terms(), b.terms());
    EXPECT_EQ(a.num_triples(), b.num_triples());
    for (TermId t : a.terms()) {
      auto fa = a.FactsAbout(t);
      auto fb = b.FactsAbout(t);
      ASSERT_EQ(fa.size(), fb.size());
      for (size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
    }
  }
};

TEST_F(StoreSnapshotTest, RoundTripReproducesEverything) {
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  Populate(&pool, &store);

  std::stringstream buffer;
  storage::SnapshotWriter writer(buffer);
  storage::SaveTermPool(pool, writer);
  store.SaveTo(writer);
  ASSERT_TRUE(writer.ok());

  storage::SnapshotReader reader(buffer);
  rdf::TermPool pool2;
  ASSERT_TRUE(storage::LoadTermPool(reader, &pool2).ok());
  auto loaded = rdf::TripleStore::LoadFrom(reader, &pool2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_TRUE(reader.ok());

  // Term pool deep equality.
  ASSERT_EQ(pool.size(), pool2.size());
  for (TermId id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(pool.lexical(id), pool2.lexical(id));
    EXPECT_EQ(pool.kind(id), pool2.kind(id));
  }
  ExpectDeepEqual(store, *loaded);
  EXPECT_TRUE(loaded->finalized());

  // Semantics survive: lookups behave identically.
  const TermId alice = *pool2.Find("ex:alice", rdf::TermKind::kIri);
  const TermId bob = *pool2.Find("ex:bob", rdf::TermKind::kIri);
  const RelId knows = *loaded->FindRelation(
      *pool2.Find("ex:knows", rdf::TermKind::kIri));
  EXPECT_TRUE(loaded->Contains(alice, knows, bob));
  EXPECT_EQ(loaded->ObjectsOf(alice, knows).size(), 2u);
}

TEST_F(StoreSnapshotTest, LoadRejectsOutOfRangeTermIds) {
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  Populate(&pool, &store);

  std::stringstream buffer;
  storage::SnapshotWriter writer(buffer);
  store.SaveTo(writer);

  // Load against a pool that lacks the referenced terms.
  rdf::TermPool tiny;
  tiny.InternIri("only");
  storage::SnapshotReader reader(buffer);
  auto loaded = rdf::TripleStore::LoadFrom(reader, &tiny);
  EXPECT_FALSE(loaded.ok());
}

TEST(TermPoolSnapshotTest, RequiresEmptyPool) {
  rdf::TermPool pool;
  pool.InternIri("ex:x");
  std::stringstream buffer;
  storage::SnapshotWriter writer(buffer);
  storage::SaveTermPool(pool, writer);

  storage::SnapshotReader reader(buffer);
  rdf::TermPool non_empty;
  non_empty.InternIri("occupied");
  EXPECT_FALSE(storage::LoadTermPool(reader, &non_empty).ok());
}

// ---------------------------------------------------------------------------
// Alignment snapshot files
// ---------------------------------------------------------------------------

class AlignmentSnapshotTest : public ::testing::Test {
 protected:
  static std::string TempPath(const std::string& name) {
    return ::testing::TempDir() + "/" + name;
  }

  // Two small ontologies over one pool, exercising facts, literals, types,
  // subclass and subproperty closure.
  static void Build(rdf::TermPool* pool,
                    std::optional<ontology::Ontology>* left,
                    std::optional<ontology::Ontology>* right) {
    ontology::OntologyBuilder lb(pool, "left");
    lb.AddSubClassOf("l:Singer", "l:Person");
    lb.AddType("l:elvis", "l:Singer");
    lb.AddSubPropertyOf("l:bornIn", "l:locatedIn");
    lb.AddFact("l:elvis", "l:bornIn", "l:tupelo");
    lb.AddLiteralFact("l:elvis", "l:name", "Elvis Presley");
    auto built_left = lb.Build();
    ASSERT_TRUE(built_left.ok()) << built_left.status().ToString();
    left->emplace(std::move(built_left).value());

    ontology::OntologyBuilder rb(pool, "right");
    rb.AddType("r:elvis", "r:Artist");
    rb.AddFact("r:elvis", "r:birthPlace", "r:tupelo");
    rb.AddLiteralFact("r:elvis", "r:label", "Elvis Presley");
    auto built_right = rb.Build();
    ASSERT_TRUE(built_right.ok()) << built_right.status().ToString();
    right->emplace(std::move(built_right).value());
  }

  static void ExpectOntologyEqual(const ontology::Ontology& a,
                                  const ontology::Ontology& b) {
    EXPECT_EQ(a.name(), b.name());
    EXPECT_EQ(a.instances(), b.instances());
    EXPECT_EQ(a.classes(), b.classes());
    EXPECT_EQ(a.num_triples(), b.num_triples());
    ASSERT_EQ(a.num_relations(), b.num_relations());
    for (rdf::TermId cls : a.classes()) {
      auto sa = a.SuperClassesOf(cls);
      auto sb = b.SuperClassesOf(cls);
      EXPECT_TRUE(std::equal(sa.begin(), sa.end(), sb.begin(), sb.end()));
      auto ia = a.InstancesOf(cls);
      auto ib = b.InstancesOf(cls);
      EXPECT_TRUE(std::equal(ia.begin(), ia.end(), ib.begin(), ib.end()));
    }
    for (rdf::TermId inst : a.instances()) {
      auto ca = a.ClassesOf(inst);
      auto cb = b.ClassesOf(inst);
      EXPECT_TRUE(std::equal(ca.begin(), ca.end(), cb.begin(), cb.end()));
      auto fa = a.FactsAbout(inst);
      auto fb = b.FactsAbout(inst);
      ASSERT_EQ(fa.size(), fb.size());
      for (size_t i = 0; i < fa.size(); ++i) EXPECT_EQ(fa[i], fb[i]);
    }
    for (RelId r = 1; r <= static_cast<RelId>(a.num_relations()); ++r) {
      for (RelId signed_rel : {r, Inverse(r)}) {
        EXPECT_DOUBLE_EQ(a.Fun(signed_rel), b.Fun(signed_rel));
        EXPECT_DOUBLE_EQ(a.FunInverse(signed_rel), b.FunInverse(signed_rel));
      }
    }
  }
};

TEST_F(AlignmentSnapshotTest, FileRoundTrip) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("pair.snap");

  auto status = ontology::SaveAlignmentSnapshot(path, *left, *right);
  ASSERT_TRUE(status.ok()) << status.ToString();

  rdf::TermPool pool2;
  auto loaded = ontology::LoadAlignmentSnapshot(path, &pool2);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  ASSERT_EQ(pool.size(), pool2.size());
  for (TermId id = 0; id < pool.size(); ++id) {
    EXPECT_EQ(pool.lexical(id), pool2.lexical(id));
    EXPECT_EQ(pool.kind(id), pool2.kind(id));
  }
  ExpectOntologyEqual(*left, loaded->left);
  ExpectOntologyEqual(*right, loaded->right);
  std::remove(path.c_str());
}

TEST_F(AlignmentSnapshotTest, SavingIsDeterministic) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string p1 = TempPath("det1.snap");
  const std::string p2 = TempPath("det2.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(p1, *left, *right).ok());
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(p2, *left, *right).ok());
  std::ifstream f1(p1, std::ios::binary), f2(p2, std::ios::binary);
  std::stringstream b1, b2;
  b1 << f1.rdbuf();
  b2 << f2.rdbuf();
  EXPECT_EQ(b1.str(), b2.str());
  std::remove(p1.c_str());
  std::remove(p2.c_str());
}

TEST_F(AlignmentSnapshotTest, RejectsCorruptionEverywhere) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("corrupt_base.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  ASSERT_GT(bytes.size(), 64u);

  // Flip one byte at a spread of offsets; every variant must be rejected
  // (structural validation or the checksum trailer).
  const std::string corrupt_path = TempPath("corrupt.snap");
  for (size_t offset = 0; offset < bytes.size();
       offset += 1 + bytes.size() / 23) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5a);
    {
      std::ofstream out(corrupt_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    rdf::TermPool scratch;
    auto loaded = ontology::LoadAlignmentSnapshot(corrupt_path, &scratch);
    EXPECT_FALSE(loaded.ok()) << "byte flip at offset " << offset
                              << " was not rejected";
    // Classified, not just rejected: a damaged magic is "wrong kind of
    // file", anything past it is kDataLoss — the one code crash recovery
    // may answer with recomputation.
    EXPECT_EQ(loaded.status().code(),
              offset < 8 ? util::StatusCode::kInvalidArgument
                         : util::StatusCode::kDataLoss)
        << "byte flip at offset " << offset << ": "
        << loaded.status().ToString();
  }
  std::remove(corrupt_path.c_str());
  std::remove(path.c_str());
}

TEST_F(AlignmentSnapshotTest, RejectsTruncation) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("trunc_base.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const std::string trunc_path = TempPath("trunc.snap");
  for (size_t keep : {size_t{0}, size_t{4}, size_t{12}, bytes.size() / 3,
                      bytes.size() / 2, bytes.size() - 1}) {
    {
      std::ofstream out(trunc_path, std::ios::binary | std::ios::trunc);
      out << bytes.substr(0, keep);
    }
    rdf::TermPool scratch;
    auto loaded = ontology::LoadAlignmentSnapshot(trunc_path, &scratch);
    EXPECT_FALSE(loaded.ok()) << "truncation to " << keep
                              << " bytes was not rejected";
    EXPECT_EQ(loaded.status().code(),
              keep < 8 ? util::StatusCode::kInvalidArgument
                       : util::StatusCode::kDataLoss)
        << "truncation to " << keep << ": " << loaded.status().ToString();
  }
  std::remove(trunc_path.c_str());
  std::remove(path.c_str());
}

TEST_F(AlignmentSnapshotTest, RejectsTrailingGarbageAndMissingFile) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("tail.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());
  {
    std::ofstream out(path, std::ios::binary | std::ios::app);
    out << "extra";
  }
  rdf::TermPool scratch;
  EXPECT_FALSE(ontology::LoadAlignmentSnapshot(path, &scratch).ok());
  std::remove(path.c_str());

  rdf::TermPool scratch2;
  EXPECT_FALSE(
      ontology::LoadAlignmentSnapshot(TempPath("does_not_exist.snap"),
                                      &scratch2)
          .ok());
}

// ---------------------------------------------------------------------------
// mmap zero-copy load path
// ---------------------------------------------------------------------------

TEST_F(AlignmentSnapshotTest, MmapLoadMatchesStreamLoad) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("mmap.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());

  rdf::TermPool stream_pool;
  auto streamed = ontology::LoadAlignmentSnapshot(
      path, &stream_pool, ontology::SnapshotLoadMode::kStream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  EXPECT_FALSE(streamed->left.store().index().zero_copy());

  rdf::TermPool mmap_pool;
  auto mapped = ontology::LoadAlignmentSnapshot(
      path, &mmap_pool, ontology::SnapshotLoadMode::kMmap);
  ASSERT_TRUE(mapped.ok()) << mapped.status().ToString();
  // The packed columns must alias the mapping, not heap copies.
  EXPECT_TRUE(mapped->left.store().index().zero_copy());
  EXPECT_TRUE(mapped->right.store().index().zero_copy());

  ExpectOntologyEqual(streamed->left, mapped->left);
  ExpectOntologyEqual(streamed->right, mapped->right);
  ExpectOntologyEqual(*left, mapped->left);
  ExpectOntologyEqual(*right, mapped->right);

  // The file may be deleted while the mapping is alive (POSIX semantics);
  // reads must keep working.
  std::remove(path.c_str());
  EXPECT_GT(mapped->left.num_triples(), 0u);
  ExpectOntologyEqual(streamed->left, mapped->left);
}

TEST_F(AlignmentSnapshotTest, MmapRejectsCorruptionAndTruncation) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("mmap_corrupt_base.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());

  std::string bytes;
  {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    bytes = buffer.str();
  }
  const std::string bad_path = TempPath("mmap_corrupt.snap");
  for (size_t offset = 0; offset < bytes.size();
       offset += 1 + bytes.size() / 23) {
    std::string mutated = bytes;
    mutated[offset] = static_cast<char>(mutated[offset] ^ 0x5a);
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out << mutated;
    }
    rdf::TermPool scratch;
    EXPECT_FALSE(ontology::LoadAlignmentSnapshot(
                     bad_path, &scratch, ontology::SnapshotLoadMode::kMmap)
                     .ok())
        << "byte flip at offset " << offset << " was not rejected by mmap";
  }
  for (size_t keep : {size_t{0}, size_t{4}, size_t{12}, bytes.size() / 2,
                      bytes.size() - 1}) {
    {
      std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
      out << bytes.substr(0, keep);
    }
    rdf::TermPool scratch;
    EXPECT_FALSE(ontology::LoadAlignmentSnapshot(
                     bad_path, &scratch, ontology::SnapshotLoadMode::kMmap)
                     .ok())
        << "truncation to " << keep << " bytes was not rejected by mmap";
  }
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

// Checks that sit behind the checksum. A snapshot whose trailer is valid but
// whose dictionaries are inconsistent (a writer bug, or damage re-sealed
// with a fresh checksum) must load as DataLoss from both format versions
// and both load paths — and must never write a dense TermId-indexed array
// out of bounds on the way.
TEST_F(AlignmentSnapshotTest, RejectsInconsistentDictionariesBehindChecksum) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  ASSERT_GE(left->store().terms().size(), 2u);
  ASSERT_GE(left->instances().size(), 2u);
  const auto pool_size = static_cast<TermId>(pool.size());

  auto read_file = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
  };
  // Rewrites the FNV-1a trailer over the mutated body.
  auto reseal = [](std::string bytes) {
    const size_t magic = sizeof(storage::kSnapshotMagic);
    const uint64_t checksum = storage::FnvHash(
        bytes.data() + magic, bytes.size() - magic - sizeof(uint64_t));
    for (size_t i = 0; i < 8; ++i) {
      bytes[bytes.size() - 8 + i] = static_cast<char>(checksum >> (8 * i));
    }
    return bytes;
  };
  // File offset of the first row of the POD array whose u64 count sits at
  // `count_at`: rows follow the count after zero padding to 8 bytes.
  auto rows_at = [](uint64_t count_at) {
    return static_cast<size_t>((count_at + 8 + 7) / 8 * 8);
  };

  const std::string path = TempPath("dictionary_base.snap");
  const std::string bad_path = TempPath("dictionary_bad.snap");
  for (uint32_t version :
       {storage::kMinSnapshotVersion, storage::kSnapshotVersion}) {
    ASSERT_TRUE(
        ontology::SaveAlignmentSnapshot(path, *left, *right, version).ok());
    const std::string bytes = read_file(path);

    // Walk the well-formed file up to the left ontology's store dictionary,
    // then past its store section to its instance list.
    const auto file = std::as_bytes(std::span(bytes.data(), bytes.size()));
    storage::SnapshotReader reader(file);
    ASSERT_EQ(reader.ReadU32(), version);
    rdf::TermPool walk_pool;
    ASSERT_TRUE(storage::LoadTermPool(reader, &walk_pool).ok());
    ASSERT_EQ(reader.ReadString(), "left");
    const uint64_t store_at = reader.position();
    std::vector<TermId> rel_names;
    ASSERT_TRUE(reader.ReadPodVector(&rel_names));
    const size_t store_terms = rows_at(reader.position());
    storage::SnapshotReader store_reader(file);
    store_reader.ReadU32();
    rdf::TermPool store_pool;
    ASSERT_TRUE(storage::LoadTermPool(store_reader, &store_pool).ok());
    store_reader.ReadString();
    ASSERT_EQ(store_reader.position(), store_at);
    ASSERT_TRUE(
        rdf::TripleStore::LoadFrom(store_reader, &store_pool, version).ok());
    const size_t instances = rows_at(store_reader.position());

    struct Case {
      const char* label;
      size_t offset;
      TermId value;
      const char* message;
    };
    const Case cases[] = {
        {"duplicated store term", store_terms + 4, left->store().terms()[0],
         "duplicate term in dictionary"},
        {"store term past the pool", store_terms, pool_size,
         "term id out of pool range"},
        {"duplicated instance", instances + 4, left->instances()[0],
         "duplicate instance in snapshot"},
        {"instance past the pool", instances, pool_size,
         "ontology term id out of pool range"},
    };
    for (const Case& c : cases) {
      std::string mutated = bytes;
      for (size_t i = 0; i < 4; ++i) {
        mutated[c.offset + i] = static_cast<char>(c.value >> (8 * i));
      }
      ASSERT_NE(mutated, bytes) << c.label;
      {
        std::ofstream out(bad_path, std::ios::binary | std::ios::trunc);
        out << reseal(std::move(mutated));
      }
      for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                              ontology::SnapshotLoadMode::kMmap}) {
        rdf::TermPool fresh;
        auto loaded = ontology::LoadAlignmentSnapshot(bad_path, &fresh, mode);
        const std::string where =
            std::string(c.label) + ", v" + std::to_string(version) +
            (mode == ontology::SnapshotLoadMode::kMmap ? ", mmap" : ", stream");
        ASSERT_FALSE(loaded.ok()) << where << " was not rejected";
        EXPECT_EQ(loaded.status().code(), util::StatusCode::kDataLoss)
            << where << ": " << loaded.status().ToString();
        EXPECT_NE(loaded.status().message().find(c.message), std::string::npos)
            << where << ": " << loaded.status().ToString();
      }
    }
  }
  std::remove(bad_path.c_str());
  std::remove(path.c_str());
}

// End to end: the aligner must produce identical equivalence tables whether
// the ontologies were freshly built, streamed, or mmap'ed — at any thread
// count.
TEST_F(AlignmentSnapshotTest, AlignmentIdenticalAcrossLoadPathsAndThreads) {
  rdf::TermPool pool;
  std::optional<ontology::Ontology> left;
  std::optional<ontology::Ontology> right;
  Build(&pool, &left, &right);
  const std::string path = TempPath("align_paths.snap");
  ASSERT_TRUE(ontology::SaveAlignmentSnapshot(path, *left, *right).ok());

  core::AlignmentConfig config;
  config.max_iterations = 4;
  auto run = [&config](const ontology::Ontology& l,
                       const ontology::Ontology& r, size_t threads) {
    core::AlignmentConfig c = config;
    c.num_threads = threads;
    return core::Aligner(l, r, c).Run();
  };
  const core::AlignmentResult reference = run(*left, *right, 0);
  ASSERT_GT(reference.instances.num_left_aligned(), 0u);

  for (const auto mode : {ontology::SnapshotLoadMode::kStream,
                          ontology::SnapshotLoadMode::kMmap}) {
    for (size_t threads : {size_t{0}, size_t{4}}) {
      rdf::TermPool fresh;
      auto loaded = ontology::LoadAlignmentSnapshot(path, &fresh, mode);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      const core::AlignmentResult result =
          run(loaded->left, loaded->right, threads);
      ASSERT_EQ(result.instances.num_left_aligned(),
                reference.instances.num_left_aligned());
      reference.instances.ForEachMaxOfLeft([&](TermId l, const auto& c) {
        const auto* other = result.instances.MaxOfLeft(l);
        ASSERT_NE(other, nullptr);
        EXPECT_EQ(other->other, c.other);
        EXPECT_EQ(other->prob, c.prob);
      });
    }
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace paris

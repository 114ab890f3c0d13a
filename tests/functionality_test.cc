#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "paris/ontology/functionality.h"
#include "paris/ontology/ontology.h"
#include "paris/ontology/snapshot.h"
#include "paris/rdf/ntriples.h"
#include "paris/rdf/term.h"
#include "paris/storage/snapshot.h"

namespace paris::ontology {
namespace {

using rdf::RelId;
using rdf::TermId;

// Builds a store with statements r(si, oi) given as index pairs.
class FunctionalityTest : public ::testing::Test {
 protected:
  FunctionalityTest() : store_(&pool_) {
    rel_ = store_.InternRelation(pool_.InternIri("ex:r"));
  }

  void AddPairs(const std::vector<std::pair<int, int>>& pairs) {
    for (auto [s, o] : pairs) {
      store_.Add(pool_.InternIri("s" + std::to_string(s)), rel_,
                 pool_.InternIri("o" + std::to_string(o)));
    }
    store_.Finalize();
  }

  rdf::TermPool pool_;
  rdf::TripleStore store_;
  RelId rel_;
};

TEST_F(FunctionalityTest, PerfectFunctionIsOne) {
  // Three subjects, one object each: fun = 3/3 = 1.
  AddPairs({{1, 1}, {2, 2}, {3, 3}});
  FunctionalityTable table(store_);
  EXPECT_DOUBLE_EQ(table.Global(rel_), 1.0);
  EXPECT_DOUBLE_EQ(table.GlobalInverse(rel_), 1.0);
}

TEST_F(FunctionalityTest, HarmonicMeanDefinition) {
  // s1 → {o1, o2}, s2 → {o3}: fun = #subjects / #pairs = 2/3 (Eq. 2).
  AddPairs({{1, 1}, {1, 2}, {2, 3}});
  FunctionalityTable table(store_);
  EXPECT_DOUBLE_EQ(table.Global(rel_), 2.0 / 3.0);
  // Inverse: every object has exactly one subject → 1.
  EXPECT_DOUBLE_EQ(table.GlobalInverse(rel_), 1.0);
}

TEST_F(FunctionalityTest, InverseFunctionality) {
  // Two subjects point at the same object: fun⁻¹ = 1/2, fun = 1.
  AddPairs({{1, 1}, {2, 1}});
  FunctionalityTable table(store_);
  EXPECT_DOUBLE_EQ(table.Global(rel_), 1.0);
  EXPECT_DOUBLE_EQ(table.GlobalInverse(rel_), 0.5);
  // fun⁻¹(r) == fun(r⁻¹).
  EXPECT_DOUBLE_EQ(table.Global(rdf::Inverse(rel_)),
                   table.GlobalInverse(rel_));
}

TEST_F(FunctionalityTest, EmptyRelationIsZero) {
  store_.Finalize();
  FunctionalityTable table(store_);
  EXPECT_DOUBLE_EQ(table.Global(rel_), 0.0);
}

TEST_F(FunctionalityTest, LocalFunctionality) {
  AddPairs({{1, 1}, {1, 2}, {2, 3}});
  const TermId s1 = *pool_.Find("s1", rdf::TermKind::kIri);
  const TermId s2 = *pool_.Find("s2", rdf::TermKind::kIri);
  EXPECT_DOUBLE_EQ(FunctionalityTable::Local(store_, rel_, s1), 0.5);
  EXPECT_DOUBLE_EQ(FunctionalityTable::Local(store_, rel_, s2), 1.0);
  // No facts → 0 by convention.
  EXPECT_DOUBLE_EQ(
      FunctionalityTable::Local(store_, rel_, pool_.InternIri("sX")), 0.0);
}

// ---------------------------------------------------------------------------
// Appendix A variants
// ---------------------------------------------------------------------------

TEST(FunctionalityVariantsTest, LikesDishCounterexample) {
  // Appendix A alternative 2's flaw: n people all like the same n dishes.
  // The argument-ratio definition reports 1 (treacherous); the harmonic
  // mean reports 1/n.
  const int n = 5;
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const RelId likes = store.InternRelation(pool.InternIri("likesDish"));
  for (int p = 0; p < n; ++p) {
    for (int d = 0; d < n; ++d) {
      store.Add(pool.InternIri("person" + std::to_string(p)), likes,
                pool.InternIri("dish" + std::to_string(d)));
    }
  }
  store.Finalize();
  FunctionalityTable table(store);
  EXPECT_DOUBLE_EQ(table.Global(likes, FunctionalityVariant::kArgumentRatio),
                   1.0);
  EXPECT_DOUBLE_EQ(table.Global(likes, FunctionalityVariant::kHarmonicMean),
                   1.0 / n);
}

TEST(FunctionalityVariantsTest, StatementPairRatioVolatileToHubs) {
  // One source with many targets dominates alternative 1.
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const RelId r = store.InternRelation(pool.InternIri("r"));
  // 9 perfect sources and 1 hub with 10 targets.
  for (int i = 0; i < 9; ++i) {
    store.Add(pool.InternIri("s" + std::to_string(i)), r,
              pool.InternIri("o" + std::to_string(i)));
  }
  for (int j = 0; j < 10; ++j) {
    store.Add(pool.InternIri("hub"), r,
              pool.InternIri("h" + std::to_string(j)));
  }
  store.Finalize();
  FunctionalityTable table(store);
  const double v1 =
      table.Global(r, FunctionalityVariant::kStatementPairRatio);
  const double harmonic =
      table.Global(r, FunctionalityVariant::kHarmonicMean);
  // pairs = 19, Σ deg² = 9 + 100 = 109 → v1 ≈ 0.17; harmonic = 10/19 ≈ 0.53.
  EXPECT_NEAR(v1, 19.0 / 109.0, 1e-12);
  EXPECT_NEAR(harmonic, 10.0 / 19.0, 1e-12);
  EXPECT_LT(v1, harmonic);
}

TEST(FunctionalityVariantsTest, ArithmeticVsHarmonicMean) {
  // s1 has 1 object (local fun 1), s2 has 4 (local fun 1/4).
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const RelId r = store.InternRelation(pool.InternIri("r"));
  store.Add(pool.InternIri("s1"), r, pool.InternIri("o0"));
  for (int j = 1; j <= 4; ++j) {
    store.Add(pool.InternIri("s2"), r,
              pool.InternIri("o" + std::to_string(j)));
  }
  store.Finalize();
  FunctionalityTable table(store);
  // Arithmetic mean: (1 + 1/4) / 2 = 0.625.
  EXPECT_NEAR(table.Global(r, FunctionalityVariant::kArithmeticMean), 0.625,
              1e-12);
  // Harmonic mean: 2 / 5 = 0.4 — always ≤ arithmetic.
  EXPECT_NEAR(table.Global(r, FunctionalityVariant::kHarmonicMean), 0.4,
              1e-12);
}

TEST(FunctionalityVariantsTest, AllVariantsInUnitInterval) {
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const RelId r = store.InternRelation(pool.InternIri("r"));
  // Mixed degrees, more subjects than objects (argument ratio would be > 1
  // without clamping).
  store.Add(pool.InternIri("a"), r, pool.InternIri("x"));
  store.Add(pool.InternIri("b"), r, pool.InternIri("x"));
  store.Add(pool.InternIri("c"), r, pool.InternIri("y"));
  store.Finalize();
  FunctionalityTable table(store);
  for (auto variant :
       {FunctionalityVariant::kHarmonicMean,
        FunctionalityVariant::kStatementPairRatio,
        FunctionalityVariant::kArgumentRatio,
        FunctionalityVariant::kArithmeticMean}) {
    for (RelId rel : {r, rdf::Inverse(r)}) {
      const double f = table.Global(rel, variant);
      EXPECT_GE(f, 0.0);
      EXPECT_LE(f, 1.0);
    }
  }
}

TEST(FunctionalityVariantsTest, StatsExposed) {
  rdf::TermPool pool;
  rdf::TripleStore store(&pool);
  const RelId r = store.InternRelation(pool.InternIri("r"));
  store.Add(pool.InternIri("a"), r, pool.InternIri("x"));
  store.Add(pool.InternIri("a"), r, pool.InternIri("y"));
  store.Finalize();
  FunctionalityTable table(store);
  const DirectionStats& fwd = table.Stats(r);
  EXPECT_EQ(fwd.num_pairs, 2u);
  EXPECT_EQ(fwd.num_distinct_firsts, 1u);
  EXPECT_EQ(fwd.num_distinct_seconds, 2u);
  EXPECT_DOUBLE_EQ(fwd.sum_squared_degree, 4.0);
  const DirectionStats& inv = table.Stats(rdf::Inverse(r));
  EXPECT_EQ(inv.num_distinct_firsts, 2u);
}

// ---------------------------------------------------------------------------
// Against a brute-force reference
// ---------------------------------------------------------------------------

// The statistics of `rel`'s direction recounted from its pairs with ordered
// containers: the degree of each first argument, the set of seconds.
DirectionStats BruteForceStats(const rdf::TripleStore& store, RelId rel) {
  const bool inverse = rdf::IsInverse(rel);
  std::map<TermId, size_t> degree;
  std::set<TermId> seconds;
  for (const rdf::TermPair& p : store.PairsOf(rel)) {
    ++degree[inverse ? p.second : p.first];
    seconds.insert(inverse ? p.first : p.second);
  }
  DirectionStats stats;
  stats.num_pairs = store.PairsOf(rel).size();
  stats.num_distinct_firsts = degree.size();
  stats.num_distinct_seconds = seconds.size();
  for (const auto& [first, n] : degree) {
    const double d = static_cast<double>(n);
    stats.sum_inverse_degree += 1.0 / d;
    stats.sum_squared_degree += d * d;
  }
  return stats;
}

// Every direction of `onto`'s table against the reference: counts and the
// squared-degree sum exact, the 1/degree sum (whose summation order
// differs) within 1e-12 relative, and the variants that read only integer
// statistics bit-equal.
void ExpectMatchesBruteForce(const Ontology& onto, const std::string& where) {
  const rdf::TripleStore& store = onto.store();
  ASSERT_GT(store.num_relations(), 0u) << where;
  for (RelId base = 1; base <= static_cast<RelId>(store.num_relations());
       ++base) {
    for (const RelId rel : {base, rdf::Inverse(base)}) {
      const DirectionStats want = BruteForceStats(store, rel);
      const DirectionStats& got = onto.functionality().Stats(rel);
      const std::string label = where + ", rel " + std::to_string(rel);
      EXPECT_EQ(got.num_pairs, want.num_pairs) << label;
      EXPECT_EQ(got.num_distinct_firsts, want.num_distinct_firsts) << label;
      EXPECT_EQ(got.num_distinct_seconds, want.num_distinct_seconds) << label;
      EXPECT_EQ(got.sum_squared_degree, want.sum_squared_degree) << label;
      EXPECT_NEAR(got.sum_inverse_degree, want.sum_inverse_degree,
                  1e-12 * want.sum_inverse_degree)
          << label;
      for (const auto variant : {FunctionalityVariant::kHarmonicMean,
                                 FunctionalityVariant::kStatementPairRatio,
                                 FunctionalityVariant::kArgumentRatio}) {
        EXPECT_EQ(onto.functionality().Global(rel, variant),
                  EvaluateFunctionality(want, variant))
            << label << ", variant " << static_cast<int>(variant);
      }
    }
  }
}

// `count` random statements: subjects among `num_entities` entities,
// objects among those and 20 literals, relations among `num_relations`.
// Each draw is the smaller of two uniform draws, so low ids are hubs and
// degrees are skewed.
std::vector<rdf::ParsedTriple> RandomTriples(uint32_t seed, int num_entities,
                                             int num_relations, int count) {
  std::mt19937 rng(seed);
  const auto skewed = [&rng](int n) {
    std::uniform_int_distribution<int> uniform(0, n - 1);
    const int a = uniform(rng);
    return std::min(a, uniform(rng));
  };
  std::vector<rdf::ParsedTriple> triples(count);
  for (rdf::ParsedTriple& t : triples) {
    t.subject = "e" + std::to_string(skewed(num_entities));
    t.predicate = "r" + std::to_string(skewed(num_relations));
    const int object = skewed(num_entities + 20);
    t.object_is_literal = object < 20;
    t.object = (t.object_is_literal ? "v" : "e") +
               std::to_string(t.object_is_literal ? object : object - 20);
  }
  return triples;
}

Ontology BuildRandom(rdf::TermPool* pool, const std::string& name,
                     uint32_t seed) {
  OntologyBuilder builder(pool, name);
  for (const rdf::ParsedTriple& t :
       RandomTriples(seed, /*num_entities=*/60, /*num_relations=*/5, 400)) {
    builder.OnTriple(t);
  }
  auto built = builder.Build();
  EXPECT_TRUE(built.ok()) << built.status().ToString();
  return std::move(built).value();
}

// The table against the reference in every state an ontology's store can
// reach: freshly finalized; after a delta merge that adds terms, pairs and
// a relation; and loaded from a v2 snapshot (directory rebuilt) and a v4
// one (directory adopted), in stream and mmap modes.
TEST(FunctionalityReferenceTest, MatchesBruteForceInEveryStoreState) {
  for (const uint32_t seed : {1u, 2u, 3u, 4u}) {
    const std::string tag = "seed " + std::to_string(seed);
    rdf::TermPool pool;
    Ontology left = BuildRandom(&pool, "left", seed);
    Ontology right = BuildRandom(&pool, "right", seed + 1000);
    ExpectMatchesBruteForce(left, tag + ", finalized");

    // New entities e60..e69, new relations r5 and r_new, and statements
    // the store already holds.
    std::vector<rdf::ParsedTriple> delta =
        RandomTriples(seed + 2000, /*num_entities=*/70, /*num_relations=*/6,
                      120);
    const auto base = RandomTriples(seed, 60, 5, 400);
    delta.insert(delta.end(), base.begin(), base.begin() + 40);
    for (int i = 0; i < 8; ++i) {
      rdf::ParsedTriple t;
      t.subject = "e" + std::to_string(60 + i);
      t.predicate = "r_new";
      t.object = "e" + std::to_string(i % 3);
      delta.push_back(t);
    }
    const size_t relations_before = left.num_relations();
    const size_t terms_before = left.store().terms().size();
    auto summary = left.ApplyDelta(delta);
    ASSERT_TRUE(summary.ok()) << summary.status().ToString();
    ASSERT_GT(left.num_relations(), relations_before) << tag;
    ASSERT_GT(left.store().terms().size(), terms_before) << tag;
    ASSERT_GT(summary->num_new_statements, 0u) << tag;
    ExpectMatchesBruteForce(left, tag + ", merged");

    const std::string path = ::testing::TempDir() + "/functionality_ref.snap";
    for (const uint32_t version :
         {storage::kMinSnapshotVersion, storage::kSnapshotVersion}) {
      ASSERT_TRUE(SaveAlignmentSnapshot(path, left, right, version).ok());
      for (const auto mode :
           {SnapshotLoadMode::kStream, SnapshotLoadMode::kMmap}) {
        const std::string where =
            tag + ", v" + std::to_string(version) +
            (mode == SnapshotLoadMode::kMmap ? " mmap" : " stream");
        rdf::TermPool fresh;
        auto loaded = LoadAlignmentSnapshot(path, &fresh, mode);
        ASSERT_TRUE(loaded.ok()) << where << ": "
                                 << loaded.status().ToString();
        EXPECT_EQ(loaded->left.store().index().zero_copy(),
                  mode == SnapshotLoadMode::kMmap)
            << where;
        ExpectMatchesBruteForce(loaded->left, where + ", left");
        ExpectMatchesBruteForce(loaded->right, where + ", right");
      }
    }
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace paris::ontology

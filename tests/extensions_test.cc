// Tests for the future-work extensions the paper sketches: the dampening
// factor (§5.1), the relation-name prior (§7), and alignment-result
// serialization.
#include <gtest/gtest.h>

#include <sstream>

#include "paris/core/aligner.h"
#include "paris/core/result_io.h"
#include "paris/ontology/ontology.h"
#include "paris/synth/profiles.h"
#include "paris/util/logging.h"

namespace paris::core {
namespace {

using ontology::Ontology;
using ontology::OntologyBuilder;
using rdf::TermKind;
using Row = std::vector<Candidate>;

class ExtensionsTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::SetLogLevel(util::LogLevel::kWarning);
  }

  Ontology BuildSmall(const std::string& ns, const std::string& name_rel,
                      const std::string& link_rel, int count) {
    OntologyBuilder b(&pool_, ns);
    for (int i = 0; i < count; ++i) {
      const std::string e = ns + ":e" + std::to_string(i);
      b.AddLiteralFact(e, ns + ":" + name_rel, "Entity " + std::to_string(i));
      b.AddFact(e, ns + ":" + link_rel,
                ns + ":e" + std::to_string((i + 1) % count));
    }
    auto onto = b.Build();
    EXPECT_TRUE(onto.ok());
    return std::move(onto).value();
  }

  rdf::TermId Iri(const std::string& s) {
    return *pool_.Find(s, TermKind::kIri);
  }

  rdf::TermPool pool_;
};

// ---------------------------------------------------------------------------
// Dampening
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, DampeningPreservesConvergedMatches) {
  Ontology a = BuildSmall("a", "name", "next", 12);
  Ontology b = BuildSmall("b", "label", "succ", 12);
  AlignmentConfig plain;
  plain.max_iterations = 6;
  AlignmentConfig damped = plain;
  damped.dampening = 0.5;
  AlignmentResult r1 = Aligner(a, b, plain).Run();
  AlignmentResult r2 = Aligner(a, b, damped).Run();
  ASSERT_EQ(r1.instances.num_left_aligned(), r2.instances.num_left_aligned());
  r1.instances.ForEachMaxOfLeft([&](rdf::TermId l, const Candidate& c) {
    const auto* other = r2.instances.MaxOfLeft(l);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->other, c.other);  // same assignment, possibly damped p
  });
}

TEST(BlendEquivalencesTest, BlendsProbabilities) {
  InstanceEquivalences old_store;
  old_store.Set(1, Row{{10, 0.8}});
  old_store.Set(2, Row{{11, 0.6}});
  old_store.Finalize();
  InstanceEquivalences fresh;
  fresh.Set(1, Row{{10, 0.4}});   // overlapping candidate
  fresh.Set(3, Row{{12, 0.9}});   // new instance
  fresh.Finalize();
  InstanceEquivalences blended =
      BlendEquivalences(old_store, fresh, /*lambda=*/0.5, /*threshold=*/0.1,
                        /*max_candidates=*/8);
  // 0.5·0.8 + 0.5·0.4 = 0.6.
  ASSERT_NE(blended.MaxOfLeft(1), nullptr);
  EXPECT_NEAR(blended.MaxOfLeft(1)->prob, 0.6, 1e-12);
  // Instance 2 only in the old store: 0.5·0.6 = 0.3 survives.
  ASSERT_NE(blended.MaxOfLeft(2), nullptr);
  EXPECT_NEAR(blended.MaxOfLeft(2)->prob, 0.3, 1e-12);
  // Instance 3 only fresh: 0.5·0.9 = 0.45.
  ASSERT_NE(blended.MaxOfLeft(3), nullptr);
  EXPECT_NEAR(blended.MaxOfLeft(3)->prob, 0.45, 1e-12);
}

TEST(BlendEquivalencesTest, ThresholdDropsWeakBlends) {
  InstanceEquivalences old_store;
  old_store.Set(1, Row{{10, 0.15}});
  old_store.Finalize();
  InstanceEquivalences fresh;
  fresh.Finalize();
  InstanceEquivalences blended =
      BlendEquivalences(old_store, fresh, 0.5, 0.1, 8);
  EXPECT_EQ(blended.MaxOfLeft(1), nullptr);  // 0.075 < 0.1
}

// ---------------------------------------------------------------------------
// Relation-name prior
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, NamePriorBoostsBootstrapButNotConvergence) {
  // Similar relation names across the two ontologies.
  Ontology a = BuildSmall("a", "phoneNumber", "knows", 10);
  Ontology b = BuildSmall("b", "phone_number", "friendOf", 10);

  AlignmentConfig plain;
  plain.max_iterations = 6;
  AlignmentConfig prior = plain;
  prior.use_relation_name_prior = true;

  AlignmentResult r_plain = Aligner(a, b, plain).Run();
  AlignmentResult r_prior = Aligner(a, b, prior).Run();

  // Iteration-1 probabilities are higher with the prior (the bootstrap
  // score exceeds θ for the similarly-named relation pair)...
  const rdf::TermId e0 = Iri("a:e0");
  const auto* first_plain = r_plain.iterations.front().instances.MaxOfLeft(e0);
  const auto* first_prior = r_prior.iterations.front().instances.MaxOfLeft(e0);
  ASSERT_NE(first_plain, nullptr);
  ASSERT_NE(first_prior, nullptr);
  EXPECT_GT(first_prior->prob, first_plain->prob);

  // ... but the converged assignments coincide.
  ASSERT_EQ(r_plain.instances.num_left_aligned(),
            r_prior.instances.num_left_aligned());
  r_plain.instances.ForEachMaxOfLeft([&](rdf::TermId l, const Candidate& c) {
    const auto* other = r_prior.instances.MaxOfLeft(l);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->other, c.other);
    EXPECT_NEAR(other->prob, c.prob, 1e-9);
  });
}

TEST(RelationScoresTest, BootstrapPriorLookup) {
  RelationScores scores = RelationScores::Bootstrap(0.1);
  EXPECT_DOUBLE_EQ(scores.SubLeftRight(1, 2), 0.1);
  scores.SetBootstrapPrior(1, 2, 0.4);
  EXPECT_DOUBLE_EQ(scores.SubLeftRight(1, 2), 0.4);
  EXPECT_DOUBLE_EQ(scores.SubRightLeft(2, 1), 0.4);
  // The inverted twin inherits the prior via canonicalization.
  EXPECT_DOUBLE_EQ(scores.SubLeftRight(-1, -2), 0.4);
  // Unrelated pairs keep θ.
  EXPECT_DOUBLE_EQ(scores.SubLeftRight(1, 3), 0.1);
  // An inverse pairing gets no name prior.
  EXPECT_DOUBLE_EQ(scores.SubLeftRight(1, -2), 0.1);
}

// ---------------------------------------------------------------------------
// Result serialization
// ---------------------------------------------------------------------------

TEST_F(ExtensionsTest, InstanceAlignmentRoundTrip) {
  Ontology a = BuildSmall("a", "name", "next", 6);
  Ontology b = BuildSmall("b", "label", "succ", 6);
  AlignmentConfig config;
  config.max_iterations = 4;
  AlignmentResult result = Aligner(a, b, config).Run();
  ASSERT_GT(result.instances.num_left_aligned(), 0u);

  std::ostringstream out;
  WriteInstanceAlignment(result.instances, a, b, out);

  std::istringstream in(out.str());
  auto restored = ReadInstanceAlignment(in, pool_);
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  EXPECT_EQ(restored->num_left_aligned(), result.instances.num_left_aligned());
  result.instances.ForEachMaxOfLeft([&](rdf::TermId l, const Candidate& c) {
    const auto* other = restored->MaxOfLeft(l);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->other, c.other);
    EXPECT_NEAR(other->prob, c.prob, 1e-9);
  });
}

TEST_F(ExtensionsTest, ReadRejectsMalformedLines) {
  std::istringstream bad1("a\tb\n");  // two fields
  EXPECT_FALSE(ReadInstanceAlignment(bad1, pool_).ok());
  std::istringstream bad2("a:unknown\tb:unknown\t0.5\n");
  EXPECT_FALSE(ReadInstanceAlignment(bad2, pool_).ok());
  pool_.InternIri("k:a");
  pool_.InternIri("k:b");
  std::istringstream bad3("k:a\tk:b\t1.5\n");  // probability out of range
  EXPECT_FALSE(ReadInstanceAlignment(bad3, pool_).ok());
  // The store holds only 0 < p <= 1, parsed from the whole field, and one
  // list per left term.
  for (const char* text : {"k:a\tk:b\tnan\n", "k:a\tk:b\t0\n",
                           "k:a\tk:b\t0.5abc\n",
                           "k:a\tk:b\t0.5\nk:a\tk:b\t0.75\n"}) {
    std::istringstream bad(text);
    const auto read = ReadInstanceAlignment(bad, pool_);
    EXPECT_EQ(read.status().code(), util::StatusCode::kInvalidArgument)
        << text;
  }
  std::istringstream good("# comment\n\nk:a\tk:b\t0.75\n");
  auto restored = ReadInstanceAlignment(good, pool_);
  ASSERT_TRUE(restored.ok());
  EXPECT_EQ(restored->num_left_aligned(), 1u);
}

TEST_F(ExtensionsTest, OaeiAlignmentFormatWellFormed) {
  Ontology a = BuildSmall("oa", "name", "next", 4);
  Ontology b = BuildSmall("ob", "label", "succ", 4);
  AlignmentConfig config;
  config.max_iterations = 3;
  AlignmentResult result = Aligner(a, b, config).Run();
  std::ostringstream out;
  WriteOaeiAlignment(result.instances, a, b, out);
  const std::string xml = out.str();
  EXPECT_NE(xml.find("<Alignment>"), std::string::npos);
  EXPECT_NE(xml.find("</Alignment>"), std::string::npos);
  EXPECT_NE(xml.find("<Cell>"), std::string::npos);
  EXPECT_NE(xml.find("entity1 rdf:resource=\"oa:e0\""), std::string::npos);
  EXPECT_NE(xml.find("<relation>=</relation>"), std::string::npos);
  // One cell per aligned instance.
  size_t cells = 0;
  for (size_t pos = xml.find("<Cell>"); pos != std::string::npos;
       pos = xml.find("<Cell>", pos + 1)) {
    ++cells;
  }
  EXPECT_EQ(cells, result.instances.num_left_aligned());
}

TEST_F(ExtensionsTest, RelationAndClassSectionsWritten) {
  OntologyBuilder ba(&pool_, "a");
  ba.AddType("a:e", "a:C");
  ba.AddLiteralFact("a:e", "a:name", "E");
  auto a = ba.Build();
  ASSERT_TRUE(a.ok());
  OntologyBuilder bb(&pool_, "b");
  bb.AddType("b:f", "b:D");
  bb.AddLiteralFact("b:f", "b:label", "E");
  auto b = bb.Build();
  ASSERT_TRUE(b.ok());
  AlignmentConfig config;
  config.max_iterations = 3;
  AlignmentResult result = Aligner(*a, *b, config).Run();

  std::ostringstream rel_out;
  WriteRelationAlignment(result.relations, *a, *b, rel_out);
  EXPECT_NE(rel_out.str().find("a:name\tb:label"), std::string::npos);

  std::ostringstream cls_out;
  WriteClassAlignment(result.classes, *a, *b, cls_out);
  EXPECT_NE(cls_out.str().find("a:C\tb:D"), std::string::npos);
}

}  // namespace
}  // namespace paris::core

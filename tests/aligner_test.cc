#include <gtest/gtest.h>

#include <cmath>
#include <optional>

#include "paris/core/aligner.h"
#include "paris/ontology/ontology.h"
#include "paris/rdf/term.h"

namespace paris::core {
namespace {

using ontology::Ontology;
using ontology::OntologyBuilder;
using rdf::TermId;
using rdf::TermKind;

// Helper: finds the (positive) relation id of `name` in `onto`.
rdf::RelId RelOf(const Ontology& onto, const std::string& name) {
  auto term = onto.pool().Find(name, TermKind::kIri);
  EXPECT_TRUE(term.has_value()) << name;
  auto rel = onto.store().FindRelation(*term);
  EXPECT_TRUE(rel.has_value()) << name;
  return *rel;
}

TermId IriOf(const rdf::TermPool& pool, const std::string& name) {
  auto term = pool.Find(name, TermKind::kIri);
  EXPECT_TRUE(term.has_value()) << name;
  return term.has_value() ? *term : rdf::kNullTerm;
}

class AlignerTest : public ::testing::Test {
 protected:
  rdf::TermPool pool_;
  std::unique_ptr<Ontology> left_;
  std::unique_ptr<Ontology> right_;

  void BuildPair(const std::function<void(OntologyBuilder&)>& fill_left,
                 const std::function<void(OntologyBuilder&)>& fill_right) {
    OntologyBuilder bl(&pool_, "left");
    fill_left(bl);
    auto l = bl.Build();
    ASSERT_TRUE(l.ok()) << l.status().ToString();
    left_ = std::make_unique<Ontology>(std::move(l).value());
    OntologyBuilder br(&pool_, "right");
    fill_right(br);
    auto r = br.Build();
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    right_ = std::make_unique<Ontology>(std::move(r).value());
  }
};

// The e-mail scenario of §4.1: a shared inverse-functional value drives the
// equivalence to 1 over two iterations, and the relations align.
TEST_F(AlignerTest, SharedInverseFunctionalValueUnifies) {
  BuildPair(
      [](OntologyBuilder& b) {
        b.AddLiteralFact("l:a1", "l:email", "x@example.org");
        b.AddLiteralFact("l:a2", "l:email", "other@example.org");
      },
      [](OntologyBuilder& b) {
        b.AddLiteralFact("r:b1", "r:mail", "x@example.org");
        b.AddLiteralFact("r:b2", "r:mail", "unrelated@example.org");
      });

  AlignmentConfig config;
  config.theta = 0.1;
  config.max_iterations = 4;
  Aligner aligner(*left_, *right_, config);
  AlignmentResult result = aligner.Run();

  const TermId a1 = IriOf(pool_, "l:a1");
  const TermId b1 = IriOf(pool_, "r:b1");

  // Iteration 1 (hand-computed): fun⁻¹ = 1 on both sides, sub-relation
  // scores bootstrap at θ → Pr = 1 - (1-θ)² = 0.19.
  ASSERT_FALSE(result.iterations.empty());
  const auto* first = result.iterations.front().instances.MaxOfLeft(a1);
  ASSERT_NE(first, nullptr);
  EXPECT_NEAR(first->prob, 1.0 - 0.9 * 0.9, 1e-12);

  // After convergence the relations are mutually contained with score 1 and
  // the instances match with probability 1.
  const auto* final_match = result.instances.MaxOfLeft(a1);
  ASSERT_NE(final_match, nullptr);
  EXPECT_EQ(final_match->other, b1);
  EXPECT_DOUBLE_EQ(final_match->prob, 1.0);

  const rdf::RelId email = RelOf(*left_, "l:email");
  const rdf::RelId mail = RelOf(*right_, "r:mail");
  EXPECT_DOUBLE_EQ(result.relations.SubLeftRight(email, mail), 1.0);
  EXPECT_DOUBLE_EQ(result.relations.SubRightLeft(mail, email), 1.0);
  // And nothing aligns the two distinct e-mail owners.
  const TermId a2 = IriOf(pool_, "l:a2");
  EXPECT_EQ(result.instances.MaxOfLeft(a2), nullptr);
}

// A value shared by many entities (low inverse functionality) provides much
// weaker evidence than a unique one — the core claim of §3.
TEST_F(AlignerTest, LowInverseFunctionalityGivesWeakEvidence) {
  BuildPair(
      [](OntologyBuilder& b) {
        // Ten left people live in "Springfield"; one has a unique ssn.
        for (int i = 0; i < 10; ++i) {
          b.AddLiteralFact("l:p" + std::to_string(i), "l:city",
                           "Springfield");
        }
        b.AddLiteralFact("l:p0", "l:ssn", "123456789");
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 10; ++i) {
          b.AddLiteralFact("r:q" + std::to_string(i), "r:town",
                           "Springfield");
        }
        b.AddLiteralFact("r:q0", "r:id", "123456789");
      });

  AlignmentConfig config;
  config.instance_threshold = 0.001;  // keep weak candidates visible
  config.max_iterations = 3;
  Aligner aligner(*left_, *right_, config);
  AlignmentResult result = aligner.Run();

  const TermId p0 = IriOf(pool_, "l:p0");
  const TermId p1 = IriOf(pool_, "l:p1");
  const TermId q0 = IriOf(pool_, "r:q0");

  const auto* strong = result.instances.MaxOfLeft(p0);
  ASSERT_NE(strong, nullptr);
  EXPECT_EQ(strong->other, q0);

  // p1 only shares the city → its best candidate is much weaker than p0's.
  const auto* weak = result.instances.MaxOfLeft(p1);
  if (weak != nullptr) {
    EXPECT_LT(weak->prob, strong->prob);
  }
}

// Structural inversion: left says actedIn(person, movie), right says
// starring(movie, person). PARIS must discover actedIn ⊆ starring⁻¹.
TEST_F(AlignerTest, AlignsInverseRelations) {
  BuildPair(
      [](OntologyBuilder& b) {
        for (int i = 0; i < 6; ++i) {
          const std::string p = "l:actor" + std::to_string(i);
          const std::string m = "l:movie" + std::to_string(i);
          b.AddLiteralFact(p, "l:name", "Actor " + std::to_string(i));
          b.AddLiteralFact(m, "l:title", "Movie " + std::to_string(i));
          b.AddFact(p, "l:actedIn", m);
        }
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 6; ++i) {
          const std::string p = "r:person" + std::to_string(i);
          const std::string m = "r:film" + std::to_string(i);
          b.AddLiteralFact(p, "r:label", "Actor " + std::to_string(i));
          b.AddLiteralFact(m, "r:caption", "Movie " + std::to_string(i));
          b.AddFact(m, "r:starring", p);  // inverted direction
        }
      });

  AlignmentConfig config;
  config.max_iterations = 5;
  Aligner aligner(*left_, *right_, config);
  AlignmentResult result = aligner.Run();

  const rdf::RelId acted_in = RelOf(*left_, "l:actedIn");
  const rdf::RelId starring = RelOf(*right_, "r:starring");
  // actedIn ⊆ starring⁻¹ with a high score; the forward direction is 0.
  EXPECT_GT(result.relations.SubLeftRight(acted_in, rdf::Inverse(starring)),
            0.9);
  EXPECT_DOUBLE_EQ(result.relations.SubLeftRight(acted_in, starring), 0.0);

  // Every actor and movie matches.
  for (int i = 0; i < 6; ++i) {
    const TermId a = IriOf(pool_, "l:actor" + std::to_string(i));
    const auto* m = result.instances.MaxOfLeft(a);
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->other, IriOf(pool_, "r:person" + std::to_string(i)));
  }
}

// Pr(r ⊆ r') = Pr(r⁻¹ ⊆ r'⁻¹) — the canonicalization identity.
TEST_F(AlignerTest, RelationScoreInversionIdentity) {
  BuildPair(
      [](OntologyBuilder& b) {
        b.AddLiteralFact("l:x", "l:k", "v1");
        b.AddFact("l:x", "l:r", "l:y");
        b.AddLiteralFact("l:y", "l:k", "v2");
      },
      [](OntologyBuilder& b) {
        b.AddLiteralFact("r:x", "r:k", "v1");
        b.AddFact("r:x", "r:r", "r:y");
        b.AddLiteralFact("r:y", "r:k", "v2");
      });
  AlignmentConfig config;
  config.max_iterations = 3;
  Aligner aligner(*left_, *right_, config);
  AlignmentResult result = aligner.Run();
  const rdf::RelId lr = RelOf(*left_, "l:r");
  const rdf::RelId rr = RelOf(*right_, "r:r");
  EXPECT_DOUBLE_EQ(result.relations.SubLeftRight(lr, rr),
                   result.relations.SubLeftRight(rdf::Inverse(lr),
                                                 rdf::Inverse(rr)));
}

// Negative evidence (Eq. 14): a conflicting functional value lowers the
// probability compared with the positive-only estimate (Eq. 13).
TEST_F(AlignerTest, NegativeEvidenceLowersConflictingMatch) {
  auto fill_left = [](OntologyBuilder& b) {
    // Background population whose names AND birth dates agree, so the
    // born ↔ birth relation alignment has support.
    for (int i = 0; i < 6; ++i) {
      const std::string e = "l:p" + std::to_string(i);
      b.AddLiteralFact(e, "l:name", "Person " + std::to_string(i));
      b.AddLiteralFact(e, "l:born", "19" + std::to_string(50 + i) + "-01-01");
    }
    // The conflicting entity: same name, different birth date.
    b.AddLiteralFact("l:a", "l:name", "John Smith");
    b.AddLiteralFact("l:a", "l:born", "1950-06-06");
  };
  auto fill_right = [](OntologyBuilder& b) {
    for (int i = 0; i < 6; ++i) {
      const std::string e = "r:q" + std::to_string(i);
      b.AddLiteralFact(e, "r:label", "Person " + std::to_string(i));
      b.AddLiteralFact(e, "r:birth", "19" + std::to_string(50 + i) + "-01-01");
    }
    b.AddLiteralFact("r:b", "r:label", "John Smith");
    b.AddLiteralFact("r:b", "r:birth", "1971-07-07");  // conflicts
  };
  BuildPair(fill_left, fill_right);

  AlignmentConfig base;
  base.max_iterations = 3;
  base.instance_threshold = 0.0001;
  AlignmentResult positive = Aligner(*left_, *right_, base).Run();

  AlignmentConfig with_negative = base;
  with_negative.use_negative_evidence = true;
  AlignmentResult negative = Aligner(*left_, *right_, with_negative).Run();

  const TermId a = IriOf(pool_, "l:a");
  const auto* p_pos = positive.instances.MaxOfLeft(a);
  ASSERT_NE(p_pos, nullptr);
  const auto* p_neg = negative.instances.MaxOfLeft(a);
  if (p_neg != nullptr) {
    EXPECT_LT(p_neg->prob, p_pos->prob);
  }
  // (p_neg may legitimately be dropped entirely; both outcomes mean the
  // negative evidence acted.)
}

// θ must not affect the converged scores (§6.3, first design experiment).
TEST_F(AlignerTest, ThetaInvarianceAtConvergence) {
  auto fill_left = [](OntologyBuilder& b) {
    for (int i = 0; i < 5; ++i) {
      const std::string e = "l:e" + std::to_string(i);
      b.AddLiteralFact(e, "l:name", "Entity " + std::to_string(i));
      b.AddLiteralFact(e, "l:code", "C" + std::to_string(i));
    }
  };
  auto fill_right = [](OntologyBuilder& b) {
    for (int i = 0; i < 5; ++i) {
      const std::string e = "r:f" + std::to_string(i);
      b.AddLiteralFact(e, "r:label", "Entity " + std::to_string(i));
      b.AddLiteralFact(e, "r:key", "C" + std::to_string(i));
    }
  };
  BuildPair(fill_left, fill_right);

  std::vector<double> final_probs;
  for (double theta : {0.01, 0.05, 0.1, 0.2}) {
    AlignmentConfig config;
    config.theta = theta;
    config.max_iterations = 6;
    AlignmentResult result = Aligner(*left_, *right_, config).Run();
    const auto* m = result.instances.MaxOfLeft(IriOf(pool_, "l:e0"));
    ASSERT_NE(m, nullptr) << "theta=" << theta;
    final_probs.push_back(m->prob);
  }
  for (size_t i = 1; i < final_probs.size(); ++i) {
    EXPECT_NEAR(final_probs[i], final_probs[0], 1e-9);
  }
}

// Class alignment (Eq. 17): with every instance of left class c matched to
// an instance of right class d at probability 1, Pr(c ⊆ d) = 1.
TEST_F(AlignerTest, ClassAlignmentFollowsInstances) {
  BuildPair(
      [](OntologyBuilder& b) {
        for (int i = 0; i < 4; ++i) {
          const std::string e = "l:s" + std::to_string(i);
          b.AddLiteralFact(e, "l:name", "Singer " + std::to_string(i));
          b.AddType(e, "l:Singer");
        }
        b.AddSubClassOf("l:Singer", "l:Person");
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 4; ++i) {
          const std::string e = "r:v" + std::to_string(i);
          b.AddLiteralFact(e, "r:label", "Singer " + std::to_string(i));
          b.AddType(e, "r:Vocalist");
        }
        // Plus two extra vocalists with no counterpart.
        for (int i = 4; i < 6; ++i) {
          const std::string e = "r:v" + std::to_string(i);
          b.AddLiteralFact(e, "r:label", "Other " + std::to_string(i));
          b.AddType(e, "r:Vocalist");
        }
      });

  AlignmentConfig config;
  config.max_iterations = 4;
  AlignmentResult result = Aligner(*left_, *right_, config).Run();

  const TermId singer = IriOf(pool_, "l:Singer");
  const TermId person = IriOf(pool_, "l:Person");
  const TermId vocalist = IriOf(pool_, "r:Vocalist");

  double singer_in_vocalist = 0.0;
  double vocalist_in_singer = 0.0;
  double vocalist_in_person = 0.0;
  for (const auto& e : result.classes.entries()) {
    if (e.sub_is_left && e.sub == singer && e.super == vocalist) {
      singer_in_vocalist = e.score;
    }
    if (!e.sub_is_left && e.sub == vocalist && e.super == singer) {
      vocalist_in_singer = e.score;
    }
    if (!e.sub_is_left && e.sub == vocalist && e.super == person) {
      vocalist_in_person = e.score;
    }
  }
  // All matched singers are vocalists → score 1.
  EXPECT_DOUBLE_EQ(singer_in_vocalist, 1.0);
  // Only 4 of 6 vocalists are singers → score 4/6.
  EXPECT_NEAR(vocalist_in_singer, 4.0 / 6.0, 1e-9);
  // Vocalist ⊆ Person inherits through the type closure.
  EXPECT_NEAR(vocalist_in_person, 4.0 / 6.0, 1e-9);
}

// The convergence criterion fires and is recorded.
TEST_F(AlignerTest, ConvergenceRecorded) {
  BuildPair(
      [](OntologyBuilder& b) {
        b.AddLiteralFact("l:a", "l:k", "shared-key");
      },
      [](OntologyBuilder& b) {
        b.AddLiteralFact("r:b", "r:k", "shared-key");
      });
  AlignmentConfig config;
  config.max_iterations = 10;
  AlignmentResult result = Aligner(*left_, *right_, config).Run();
  EXPECT_GT(result.converged_at, 1);
  EXPECT_LE(result.converged_at, 10);
  EXPECT_LT(result.iterations.back().change_fraction,
            config.convergence_threshold);
  EXPECT_EQ(result.iterations.size(),
            static_cast<size_t>(result.converged_at));
}

// Determinism: two runs with identical inputs produce identical outputs.
TEST_F(AlignerTest, RunsAreDeterministic) {
  BuildPair(
      [](OntologyBuilder& b) {
        for (int i = 0; i < 8; ++i) {
          b.AddLiteralFact("l:x" + std::to_string(i), "l:name",
                           "N" + std::to_string(i % 5));  // ambiguity
        }
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 8; ++i) {
          b.AddLiteralFact("r:y" + std::to_string(i), "r:name",
                           "N" + std::to_string(i % 5));
        }
      });
  AlignmentConfig config;
  config.max_iterations = 3;
  AlignmentResult r1 = Aligner(*left_, *right_, config).Run();
  AlignmentResult r2 = Aligner(*left_, *right_, config).Run();
  ASSERT_EQ(r1.instances.num_left_aligned(), r2.instances.num_left_aligned());
  r1.instances.ForEachMaxOfLeft([&](TermId l, const Candidate& c) {
    const auto* other = r2.instances.MaxOfLeft(l);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->other, c.other);
    EXPECT_DOUBLE_EQ(other->prob, c.prob);
  });
}

// The full fixpoint — instance pass, relation pass, and class pass — must
// be byte-identical across thread counts, including the relation table's
// iteration order (the negative-evidence pass is sensitive to it).
TEST_F(AlignerTest, ByteIdenticalAcrossThreadCounts) {
  BuildPair(
      [](OntologyBuilder& b) {
        for (int i = 0; i < 24; ++i) {
          const std::string e = "l:e" + std::to_string(i);
          b.AddLiteralFact(e, "l:name", "Name " + std::to_string(i));
          b.AddLiteralFact(e, "l:city", "City " + std::to_string(i % 4));
          b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 1) % 24));
          b.AddFact(e, "l:worksAt", "l:e" + std::to_string((i + 7) % 24));
        }
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 24; ++i) {
          const std::string e = "r:f" + std::to_string(i);
          b.AddLiteralFact(e, "r:label", "Name " + std::to_string(i));
          b.AddLiteralFact(e, "r:town", "City " + std::to_string(i % 4));
          b.AddFact(e, "r:contact", "r:f" + std::to_string((i + 1) % 24));
          b.AddFact(e, "r:employer", "r:f" + std::to_string((i + 7) % 24));
        }
      });

  AlignmentConfig base;
  base.max_iterations = 4;
  base.use_negative_evidence = true;

  std::optional<AlignmentResult> reference;
  for (size_t threads : {size_t{0}, size_t{1}, size_t{4}}) {
    AlignmentConfig config = base;
    config.num_threads = threads;
    AlignmentResult result = Aligner(*left_, *right_, config).Run();
    if (!reference.has_value()) {
      reference.emplace(std::move(result));
      continue;
    }
    // Instance assignments: identical keys, counterparts, and exact probs.
    ASSERT_EQ(result.instances.num_left_aligned(),
              reference->instances.num_left_aligned())
        << "threads=" << threads;
    reference->instances.ForEachMaxOfLeft([&](TermId l, const Candidate& c) {
      const auto* other = result.instances.MaxOfLeft(l);
      ASSERT_NE(other, nullptr) << "threads=" << threads;
      EXPECT_EQ(other->other, c.other);
      EXPECT_EQ(other->prob, c.prob) << "threads=" << threads;
    });
    // Relation tables: identical entries in identical iteration order.
    const auto& expect_entries = reference->relations.Entries();
    const auto& got_entries = result.relations.Entries();
    ASSERT_EQ(got_entries.size(), expect_entries.size())
        << "threads=" << threads;
    for (size_t i = 0; i < expect_entries.size(); ++i) {
      EXPECT_EQ(got_entries[i].sub, expect_entries[i].sub);
      EXPECT_EQ(got_entries[i].super, expect_entries[i].super);
      EXPECT_EQ(got_entries[i].score, expect_entries[i].score);
      EXPECT_EQ(got_entries[i].sub_is_left, expect_entries[i].sub_is_left);
    }
    // Class scores.
    ASSERT_EQ(result.classes.entries().size(),
              reference->classes.entries().size());
    for (size_t i = 0; i < reference->classes.entries().size(); ++i) {
      EXPECT_EQ(result.classes.entries()[i].score,
                reference->classes.entries()[i].score);
    }
  }
}

// Threading must not change results.
TEST_F(AlignerTest, ThreadedRunMatchesSerial) {
  BuildPair(
      [](OntologyBuilder& b) {
        for (int i = 0; i < 20; ++i) {
          const std::string e = "l:e" + std::to_string(i);
          b.AddLiteralFact(e, "l:name", "Name " + std::to_string(i));
          b.AddFact(e, "l:knows", "l:e" + std::to_string((i + 1) % 20));
        }
      },
      [](OntologyBuilder& b) {
        for (int i = 0; i < 20; ++i) {
          const std::string e = "r:f" + std::to_string(i);
          b.AddLiteralFact(e, "r:label", "Name " + std::to_string(i));
          b.AddFact(e, "r:contact", "r:f" + std::to_string((i + 1) % 20));
        }
      });
  AlignmentConfig serial;
  serial.max_iterations = 4;
  AlignmentConfig threaded = serial;
  threaded.num_threads = 4;
  AlignmentResult r1 = Aligner(*left_, *right_, serial).Run();
  AlignmentResult r2 = Aligner(*left_, *right_, threaded).Run();
  ASSERT_EQ(r1.instances.num_left_aligned(), r2.instances.num_left_aligned());
  r1.instances.ForEachMaxOfLeft([&](TermId l, const Candidate& c) {
    const auto* other = r2.instances.MaxOfLeft(l);
    ASSERT_NE(other, nullptr);
    EXPECT_EQ(other->other, c.other);
    EXPECT_DOUBLE_EQ(other->prob, c.prob);
  });
}

}  // namespace
}  // namespace paris::core

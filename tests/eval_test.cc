#include <gtest/gtest.h>

#include "paris/eval/metrics.h"
#include "paris/eval/report.h"
#include "paris/synth/derive.h"
#include "paris/synth/world.h"

namespace paris::eval {
namespace {

using Row = std::vector<core::Candidate>;

// Builds a small derived pair with a known gold standard to exercise the
// metric functions.
class EvalTest : public ::testing::Test {
 protected:
  EvalTest() {
    synth::WorldSpec spec;
    spec.seed = 99;
    spec.classes = {{"thing", -1}, {"person", 0}};
    spec.groups = {{1, 20, "p"}};
    spec.attributes = {
        {"name", 1, synth::ValueKind::kPersonName, 1.0, 0.0, 1, false}};
    world_ = std::make_unique<synth::World>(synth::World::Generate(spec));
    synth::DeriveSpec l;
    l.onto_name = "a";
    l.relations = {{-1, 0, "a:name", false}};
    l.classes = {{1, "a:P"}};
    synth::DeriveSpec r;
    r.onto_name = "b";
    r.relations = {{-1, 0, "b:name", false}};
    r.classes = {{1, "b:P"}};
    auto pair = synth::PairDeriver(world_.get(), l, r).Derive("t");
    EXPECT_TRUE(pair.ok());
    pair_ = std::make_unique<synth::OntologyPair>(std::move(pair).value());
  }

  rdf::TermId LeftInstance(size_t i) const {
    return pair_->left->instances()[i];
  }
  rdf::TermId GoldOf(rdf::TermId left) const {
    return pair_->gold.left_to_right().at(left);
  }

  std::unique_ptr<synth::World> world_;
  std::unique_ptr<synth::OntologyPair> pair_;
};

TEST_F(EvalTest, PerfectAssignmentScoresPerfect) {
  core::InstanceEquivalences equiv;
  for (const auto& [l, r] : pair_->gold.left_to_right()) {
    equiv.Set(l, Row{{r, 1.0}});
  }
  equiv.Finalize();
  const auto pr = EvaluateInstances(equiv, pair_->gold);
  EXPECT_EQ(pr.predicted, 20u);
  EXPECT_EQ(pr.correct, 20u);
  EXPECT_EQ(pr.gold, 20u);
  EXPECT_DOUBLE_EQ(pr.precision(), 1.0);
  EXPECT_DOUBLE_EQ(pr.recall(), 1.0);
  EXPECT_DOUBLE_EQ(pr.f1(), 1.0);
}

TEST_F(EvalTest, WrongAssignmentIsFalsePositive) {
  core::InstanceEquivalences equiv;
  const rdf::TermId l0 = LeftInstance(0);
  const rdf::TermId l1 = LeftInstance(1);
  equiv.Set(l0, Row{{GoldOf(l1), 1.0}});  // wrong counterpart
  equiv.Set(l1, Row{{GoldOf(l1), 1.0}});  // right
  equiv.Finalize();
  const auto pr = EvaluateInstances(equiv, pair_->gold);
  EXPECT_EQ(pr.predicted, 2u);
  EXPECT_EQ(pr.correct, 1u);
  EXPECT_DOUBLE_EQ(pr.precision(), 0.5);
  EXPECT_DOUBLE_EQ(pr.recall(), 1.0 / 20.0);
}

TEST_F(EvalTest, EmptyAssignmentHasZeroRecall) {
  core::InstanceEquivalences equiv;
  equiv.Finalize();
  const auto pr = EvaluateInstances(equiv, pair_->gold);
  EXPECT_EQ(pr.predicted, 0u);
  EXPECT_DOUBLE_EQ(pr.precision(), 0.0);
  EXPECT_DOUBLE_EQ(pr.recall(), 0.0);
  EXPECT_DOUBLE_EQ(pr.f1(), 0.0);
}

TEST_F(EvalTest, FilteredEvaluationRestrictsBothSides) {
  core::InstanceEquivalences equiv;
  for (const auto& [l, r] : pair_->gold.left_to_right()) {
    equiv.Set(l, Row{{r, 1.0}});
  }
  equiv.Finalize();
  const rdf::TermId only = LeftInstance(3);
  const auto pr = EvaluateInstancesFiltered(
      equiv, pair_->gold, [&](rdf::TermId t) { return t == only; });
  EXPECT_EQ(pr.gold, 1u);
  EXPECT_EQ(pr.predicted, 1u);
  EXPECT_EQ(pr.correct, 1u);
}

TEST_F(EvalTest, RelationEvalUsesMaximalAssignment) {
  // One relation on each side; gold says a:name ⊆ b:name.
  core::RelationScores scores;
  scores.SetSubLeftRight(1, 1, 0.9);   // correct
  scores.SetSubLeftRight(1, -1, 0.4);  // weaker wrong direction — ignored
  const auto eval = EvaluateRelations(scores, pair_->gold, true, 0.3);
  EXPECT_EQ(eval.assigned, 1u);
  EXPECT_EQ(eval.correct, 1u);
  EXPECT_EQ(eval.alignable, 1u);
  EXPECT_DOUBLE_EQ(eval.precision(), 1.0);
  EXPECT_DOUBLE_EQ(eval.recall(), 1.0);
}

TEST_F(EvalTest, RelationEvalThresholdSuppresses) {
  core::RelationScores scores;
  scores.SetSubLeftRight(1, 1, 0.2);
  const auto eval = EvaluateRelations(scores, pair_->gold, true, 0.3);
  EXPECT_EQ(eval.assigned, 0u);
  EXPECT_EQ(eval.alignable, 1u);
  EXPECT_DOUBLE_EQ(eval.recall(), 0.0);
}

TEST_F(EvalTest, RelationEvalNormalizesInverseSub) {
  // An entry stated on the inverse sub relation must count for its base:
  // a:name⁻¹ ⊆ b:name⁻¹ ⟺ a:name ⊆ b:name.
  core::RelationScores scores;
  scores.SetSubLeftRight(1, -1, 0.9);  // a:name ⊆ b:name⁻¹ — wrong
  const auto eval = EvaluateRelations(scores, pair_->gold, true, 0.3);
  EXPECT_EQ(eval.assigned, 1u);
  EXPECT_EQ(eval.correct, 0u);
}

TEST_F(EvalTest, ClassEntriesEvaluation) {
  const rdf::TermId a_p =
      *pair_->pool->Find("a:P", rdf::TermKind::kIri);
  const rdf::TermId b_p =
      *pair_->pool->Find("b:P", rdf::TermKind::kIri);
  core::ClassScores scores({{a_p, b_p, 0.9, true},
                            {a_p, a_p, 0.8, true}});  // second is nonsense
  const auto eval = EvaluateClassEntries(scores, pair_->gold, true, 0.5);
  EXPECT_EQ(eval.entries, 2u);
  EXPECT_EQ(eval.correct, 1u);
  EXPECT_EQ(eval.aligned_subclasses, 1u);
  EXPECT_DOUBLE_EQ(eval.precision(), 0.5);
}

TEST_F(EvalTest, ClassMaximalEvaluation) {
  const rdf::TermId a_p = *pair_->pool->Find("a:P", rdf::TermKind::kIri);
  const rdf::TermId b_p = *pair_->pool->Find("b:P", rdf::TermKind::kIri);
  core::ClassScores scores(
      {{a_p, b_p, 0.9, true}, {a_p, a_p, 0.95, true}});
  // The maximal assignment picks the higher-scoring (wrong) entry.
  const auto eval = EvaluateClassesMaximal(scores, pair_->gold, true, 0.5);
  EXPECT_EQ(eval.assigned, 1u);
  EXPECT_EQ(eval.correct, 0u);
}

// ---------------------------------------------------------------------------
// TablePrinter
// ---------------------------------------------------------------------------

TEST(TablePrinterTest, AlignsColumns) {
  TablePrinter t({"A", "LongHeader"});
  t.AddRow({"aaaa", "b"});
  t.AddRow({"c", "dd"});
  const std::string out = t.ToString();
  // Every line has the same column start for the second field.
  const auto lines_start = out.find('\n');
  ASSERT_NE(lines_start, std::string::npos);
  EXPECT_NE(out.find("LongHeader"), std::string::npos);
  EXPECT_NE(out.find("aaaa"), std::string::npos);
}

TEST(TablePrinterTest, Formatting) {
  EXPECT_EQ(TablePrinter::Pct(0.9), "90%");
  EXPECT_EQ(TablePrinter::Pct(1.0), "100%");
  EXPECT_EQ(TablePrinter::Pct1(0.123), "12.3%");
  EXPECT_EQ(TablePrinter::Fixed(3.14159, 2), "3.14");
}

TEST(TablePrinterTest, ShortRowsTolerated) {
  TablePrinter t({"A", "B", "C"});
  t.AddRow({"x"});
  EXPECT_NE(t.ToString().find("x"), std::string::npos);
}

}  // namespace
}  // namespace paris::eval

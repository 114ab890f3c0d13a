// End-to-end tests: run the full PARIS pipeline on the synthetic dataset
// profiles and check that the paper's qualitative results hold (§6). These
// are the "shape" assertions of the reproduction: who wins and roughly by
// how much, not exact figures.
#include <gtest/gtest.h>

#include "paris/baseline/label_match.h"
#include "paris/core/aligner.h"
#include "paris/eval/metrics.h"
#include "paris/synth/profiles.h"
#include "paris/util/logging.h"

namespace paris {
namespace {

using core::Aligner;
using core::AlignmentConfig;
using core::AlignmentResult;
using eval::EvaluateInstances;
using eval::EvaluateRelations;

class IntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    util::SetLogLevel(util::LogLevel::kWarning);
  }
};

TEST_F(IntegrationTest, OaeiPersonNearPerfect) {
  auto pair = synth::MakeOaeiPersonPair();
  ASSERT_TRUE(pair.ok());
  AlignmentConfig config;
  config.max_iterations = 6;
  AlignmentResult result = Aligner(*pair->left, *pair->right, config).Run();

  const auto pr = EvaluateInstances(result.instances, pair->gold);
  // Table 1: PARIS achieves 100 % / 100 % on the person dataset. Allow a
  // whisker of slack for the synthetic stand-in.
  EXPECT_GT(pr.precision(), 0.97) << "prec=" << pr.precision();
  EXPECT_GT(pr.recall(), 0.97) << "rec=" << pr.recall();

  // Relations align in both directions.
  const auto rel_lr = EvaluateRelations(result.relations, pair->gold,
                                        /*sub_is_left=*/true, 0.3);
  EXPECT_GT(rel_lr.assigned, 0u);
  EXPECT_GT(rel_lr.precision(), 0.9);

  // Converged quickly (paper: 2 iterations).
  EXPECT_GE(result.converged_at, 2);
  EXPECT_LE(result.converged_at, 5);
}

TEST_F(IntegrationTest, OaeiRestaurantGoodDespiteNoise) {
  auto pair = synth::MakeOaeiRestaurantPair();
  ASSERT_TRUE(pair.ok());
  AlignmentConfig config;
  config.max_iterations = 6;
  AlignmentResult result = Aligner(*pair->left, *pair->right, config).Run();
  const auto pr = EvaluateInstances(result.instances, pair->gold);
  // Table 1: 95 % precision / 88 % recall. Shape: high precision, recall
  // noticeably below precision because of the phone/typo noise.
  EXPECT_GT(pr.precision(), 0.85) << "prec=" << pr.precision();
  EXPECT_GT(pr.recall(), 0.6) << "rec=" << pr.recall();
  EXPECT_GT(pr.f1(), 0.75) << "f1=" << pr.f1();
}

TEST_F(IntegrationTest, RestaurantNormalizingMatcherRaisesRecall) {
  auto pair = synth::MakeOaeiRestaurantPair();
  ASSERT_TRUE(pair.ok());
  AlignmentConfig config;
  config.max_iterations = 5;

  Aligner identity(*pair->left, *pair->right, config);
  const auto pr_identity =
      EvaluateInstances(identity.Run().instances, pair->gold);

  Aligner normalizing(*pair->left, *pair->right, config);
  normalizing.set_literal_matcher_factory(core::NormalizingMatcherFactory());
  const auto pr_norm =
      EvaluateInstances(normalizing.Run().instances, pair->gold);

  // §6.3: normalizing away punctuation recovers the reformatted phone
  // numbers, so recall must rise.
  EXPECT_GT(pr_norm.recall(), pr_identity.recall());
}

TEST_F(IntegrationTest, YagoImdbParisBeatsLabelBaseline) {
  synth::ProfileOptions opts;
  opts.scale = 0.15;  // keep the test quick; the bench runs full scale
  auto pair = synth::MakeYagoImdbPair(opts);
  ASSERT_TRUE(pair.ok());

  AlignmentConfig config;
  config.max_iterations = 4;
  AlignmentResult result = Aligner(*pair->left, *pair->right, config).Run();
  const auto paris_pr = EvaluateInstances(result.instances, pair->gold);

  baseline::LabelMatchConfig label_config;
  label_config.right_label_relations = {"imdb:name", "imdb:title"};
  const auto baseline_pr = EvaluateInstances(
      baseline::AlignByLabel(*pair->left, *pair->right, label_config),
      pair->gold);

  // §6.4 Table 5 shape: PARIS's F-score beats the label baseline, whose
  // recall suffers from the noisy labels.
  EXPECT_GT(paris_pr.f1(), baseline_pr.f1())
      << "paris f1=" << paris_pr.f1() << " baseline f1=" << baseline_pr.f1();
  EXPECT_GT(paris_pr.recall(), baseline_pr.recall());
  EXPECT_GT(paris_pr.f1(), 0.75);
}

TEST_F(IntegrationTest, YagoDbpediaIterationsImprove) {
  synth::ProfileOptions opts;
  // Large enough that the fixed place/org hub pools keep their realistic
  // fan-in (they do not scale with `scale`).
  opts.scale = 0.4;
  auto pair = synth::MakeYagoDbpediaPair(opts);
  ASSERT_TRUE(pair.ok());

  AlignmentConfig config;
  config.max_iterations = 4;
  config.convergence_threshold = 0.0;  // force all 4 iterations
  AlignmentResult result = Aligner(*pair->left, *pair->right, config).Run();
  ASSERT_EQ(result.iterations.size(), 4u);

  // Table 3 shape: F-measure improves from iteration 1 to the last and the
  // change fraction shrinks monotonically (convergence).
  const auto first =
      EvaluateInstances(result.iterations.front().instances, pair->gold);
  const auto last =
      EvaluateInstances(result.iterations.back().instances, pair->gold);
  EXPECT_GE(last.f1(), first.f1());
  EXPECT_LT(result.iterations.back().change_fraction,
            result.iterations[1].change_fraction);
  // Final quality: high precision (≈ 0.85 at full scale; slightly lower at
  // this reduced scale because the hub pools keep their absolute size),
  // recall bounded by the coverage overlap.
  EXPECT_GT(last.precision(), 0.75) << "prec=" << last.precision();
  EXPECT_GT(last.recall(), 0.5) << "rec=" << last.recall();
}

TEST_F(IntegrationTest, YagoDbpediaRelationAndClassAlignment) {
  synth::ProfileOptions opts;
  opts.scale = 0.12;
  auto pair = synth::MakeYagoDbpediaPair(opts);
  ASSERT_TRUE(pair.ok());
  AlignmentConfig config;
  config.max_iterations = 4;
  AlignmentResult result = Aligner(*pair->left, *pair->right, config).Run();

  const auto rel_lr = EvaluateRelations(result.relations, pair->gold,
                                        /*sub_is_left=*/true, 0.3);
  const auto rel_rl = EvaluateRelations(result.relations, pair->gold,
                                        /*sub_is_left=*/false, 0.3);
  EXPECT_GT(rel_lr.assigned, 5u);
  EXPECT_GT(rel_lr.precision(), 0.8);
  EXPECT_GT(rel_rl.precision(), 0.8);

  // Class alignment: precision rises with the threshold (Figure 1 shape).
  const auto classes_low = eval::EvaluateClassEntries(
      result.classes, pair->gold, /*sub_is_left=*/true, 0.2);
  const auto classes_high = eval::EvaluateClassEntries(
      result.classes, pair->gold, /*sub_is_left=*/true, 0.8);
  EXPECT_GT(classes_low.entries, 0u);
  EXPECT_GE(classes_high.precision(), classes_low.precision() - 0.05);
  // Figure 2 shape: fewer classes survive higher thresholds.
  EXPECT_LE(classes_high.aligned_subclasses, classes_low.aligned_subclasses);
}

}  // namespace
}  // namespace paris

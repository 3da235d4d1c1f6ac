// Tests for the classifier family: random forest, GBDT, naive Bayes, and
// the soft-voting ensemble, on shared synthetic problems.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>

#include "common/rng.h"
#include "ml/ensemble.h"
#include "ml/forest.h"
#include "ml/gbdt.h"
#include "ml/metrics.h"
#include "ml/naive_bayes.h"

namespace rvar {
namespace ml {
namespace {

ForestConfig ForestWithTrees(int num_trees) {
  ForestConfig config;
  config.num_trees = num_trees;
  return config;
}

// Three Gaussian blobs in 2D (easily separable, slight overlap).
Dataset Blobs(int n_per_class, double spread, Rng* rng) {
  const double centers[3][2] = {{0.0, 0.0}, {4.0, 0.0}, {2.0, 4.0}};
  Dataset d;
  d.feature_names = {"x0", "x1"};
  for (int c = 0; c < 3; ++c) {
    for (int i = 0; i < n_per_class; ++i) {
      d.x.push_back({rng->Normal(centers[c][0], spread),
                     rng->Normal(centers[c][1], spread)});
      d.y.push_back(c);
    }
  }
  return d;
}

// XOR-style problem: not linearly separable, needs interactions.
Dataset Xor(int n, Rng* rng) {
  Dataset d;
  d.feature_names = {"x0", "x1", "noise"};
  for (int i = 0; i < n; ++i) {
    const double a = rng->Uniform(-1.0, 1.0);
    const double b = rng->Uniform(-1.0, 1.0);
    d.x.push_back({a, b, rng->Uniform()});
    d.y.push_back((a > 0.0) != (b > 0.0) ? 1 : 0);
  }
  return d;
}

double EvalAccuracy(const Classifier& model, const Dataset& test) {
  auto acc = Accuracy(test.y, model.PredictAll(test));
  EXPECT_TRUE(acc.ok());
  return acc.ValueOr(0.0);
}

TEST(RandomForestClassifierTest, SeparatesBlobs) {
  Rng rng(21);
  Dataset train = Blobs(150, 0.6, &rng);
  Dataset test = Blobs(50, 0.6, &rng);
  ForestConfig config;
  config.num_trees = 30;
  RandomForestClassifier rf(config);
  ASSERT_TRUE(rf.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(rf, test), 0.95);
  EXPECT_EQ(rf.num_classes(), 3);
}

TEST(RandomForestClassifierTest, SolvesXor) {
  Rng rng(22);
  Dataset train = Xor(1000, &rng);
  Dataset test = Xor(300, &rng);
  ForestConfig config;
  config.num_trees = 40;
  RandomForestClassifier rf(config);
  ASSERT_TRUE(rf.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(rf, test), 0.93);
}

TEST(RandomForestClassifierTest, ImportanceIgnoresNoiseFeature) {
  Rng rng(23);
  Dataset train = Xor(1200, &rng);
  ForestConfig config;
  config.num_trees = 30;
  config.max_features = 3;
  RandomForestClassifier rf(config);
  ASSERT_TRUE(rf.Fit(train).ok());
  const auto& imp = rf.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0], imp[2] * 3.0);
  EXPECT_GT(imp[1], imp[2] * 3.0);
  EXPECT_NEAR(imp[0] + imp[1] + imp[2], 1.0, 1e-9);
}

TEST(RandomForestClassifierTest, ProbabilitiesSumToOne) {
  Rng rng(24);
  Dataset train = Blobs(60, 0.8, &rng);
  RandomForestClassifier rf(ForestWithTrees(10));
  ASSERT_TRUE(rf.Fit(train).ok());
  const auto p = rf.PredictProba({2.0, 1.5});
  ASSERT_EQ(p.size(), 3u);
  double sum = 0.0;
  for (double v : p) {
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(RandomForestClassifierTest, RejectsBadConfigAndData) {
  Rng rng(25);
  Dataset train = Blobs(20, 0.5, &rng);
  RandomForestClassifier bad_trees(ForestWithTrees(0));
  EXPECT_FALSE(bad_trees.Fit(train).ok());
  RandomForestClassifier rf;
  Dataset no_labels = train;
  no_labels.y.clear();
  EXPECT_FALSE(rf.Fit(no_labels).ok());
  Dataset empty;
  EXPECT_FALSE(rf.Fit(empty).ok());
}

TEST(RandomForestClassifierTest, DeterministicGivenSeed) {
  Rng rng(26);
  Dataset train = Blobs(50, 0.7, &rng);
  ForestConfig config;
  config.num_trees = 5;
  config.seed = 99;
  RandomForestClassifier a(config), b(config);
  ASSERT_TRUE(a.Fit(train).ok());
  ASSERT_TRUE(b.Fit(train).ok());
  for (double x = -1.0; x < 5.0; x += 0.5) {
    EXPECT_EQ(a.PredictProba({x, x}), b.PredictProba({x, x}));
  }
}

TEST(RandomForestRegressorTest, FitsLinearFunction) {
  Rng rng(27);
  Dataset d;
  for (int i = 0; i < 3000; ++i) {
    const double a = rng.Uniform(0.0, 1.0);
    const double b = rng.Uniform(0.0, 1.0);
    d.x.push_back({a, b});
    d.target.push_back(3.0 * a + b);
  }
  ForestConfig config;
  config.num_trees = 30;
  config.tree.max_depth = 10;
  RandomForestRegressor rf(config);
  ASSERT_TRUE(rf.Fit(d).ok());
  double max_err = 0.0;
  for (double a = 0.1; a < 0.95; a += 0.1) {
    for (double b = 0.1; b < 0.95; b += 0.1) {
      max_err = std::max(max_err,
                         std::fabs(rf.Predict({a, b}) - (3.0 * a + b)));
    }
  }
  EXPECT_LT(max_err, 0.4);
}

TEST(GbdtClassifierTest, SeparatesBlobs) {
  Rng rng(28);
  Dataset train = Blobs(150, 0.6, &rng);
  Dataset test = Blobs(50, 0.6, &rng);
  GbdtConfig config;
  config.num_rounds = 30;
  GbdtClassifier gbdt(config);
  ASSERT_TRUE(gbdt.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(gbdt, test), 0.95);
  EXPECT_EQ(gbdt.num_classes(), 3);
  EXPECT_EQ(gbdt.rounds_used(), 30);
}

TEST(GbdtClassifierTest, SolvesXor) {
  Rng rng(29);
  Dataset train = Xor(1000, &rng);
  Dataset test = Xor(300, &rng);
  GbdtConfig config;
  config.num_rounds = 60;
  GbdtClassifier gbdt(config);
  ASSERT_TRUE(gbdt.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(gbdt, test), 0.95);
}

TEST(GbdtClassifierTest, RawScoresMatchProbaThroughSoftmax) {
  Rng rng(30);
  Dataset train = Blobs(40, 0.7, &rng);
  GbdtClassifier gbdt({.num_rounds = 10});
  ASSERT_TRUE(gbdt.Fit(train).ok());
  const std::vector<double> row = {1.0, 1.0};
  const auto raw = gbdt.PredictRaw(row);
  const auto proba = gbdt.PredictProba(row);
  double mx = *std::max_element(raw.begin(), raw.end());
  double denom = 0.0;
  for (double s : raw) denom += std::exp(s - mx);
  for (size_t k = 0; k < raw.size(); ++k) {
    EXPECT_NEAR(proba[k], std::exp(raw[k] - mx) / denom, 1e-9);
  }
}

TEST(GbdtClassifierTest, EarlyStoppingTruncatesRounds) {
  Rng rng(31);
  Dataset train = Blobs(100, 0.5, &rng);
  Dataset valid = Blobs(40, 0.5, &rng);
  GbdtConfig config;
  config.num_rounds = 200;
  config.early_stopping_rounds = 5;
  GbdtClassifier gbdt(config);
  ASSERT_TRUE(gbdt.FitWithValidation(train, valid).ok());
  // An easy problem converges long before 200 rounds.
  EXPECT_LT(gbdt.rounds_used(), 200);
  EXPECT_GT(gbdt.rounds_used(), 0);
}

TEST(GbdtClassifierTest, BaggingAndFeatureFraction) {
  Rng rng(32);
  Dataset train = Xor(800, &rng);
  Dataset test = Xor(200, &rng);
  GbdtConfig config;
  config.num_rounds = 60;
  config.bagging_fraction = 0.7;
  config.feature_fraction = 0.67;
  GbdtClassifier gbdt(config);
  ASSERT_TRUE(gbdt.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(gbdt, test), 0.9);
}

TEST(GbdtClassifierTest, ImportanceConcentratesOnSignal) {
  Rng rng(33);
  Dataset train = Xor(1000, &rng);
  GbdtClassifier gbdt({.num_rounds = 40});
  ASSERT_TRUE(gbdt.Fit(train).ok());
  const auto& imp = gbdt.feature_importance();
  ASSERT_EQ(imp.size(), 3u);
  EXPECT_GT(imp[0] + imp[1], 0.9);
}

TEST(GbdtClassifierTest, RejectsBadConfig) {
  Rng rng(34);
  Dataset train = Blobs(20, 0.5, &rng);
  GbdtClassifier zero_rounds({.num_rounds = 0});
  EXPECT_FALSE(zero_rounds.Fit(train).ok());
  GbdtConfig bad_frac;
  bad_frac.feature_fraction = 0.0;
  GbdtClassifier bf(bad_frac);
  EXPECT_FALSE(bf.Fit(train).ok());
}

// A declared class count covers classes the data never labels: the model
// is K-way, an unlabeled class still gets a (near-zero) probability, and
// the same data fits bit-identically to the inferred count when the labels
// reach the top class.
TEST(GbdtClassifierTest, DeclaredClassCountCoversUnlabeledTopClass) {
  Rng rng(35);
  Dataset train = Blobs(60, 0.6, &rng);  // labels 0..2
  GbdtClassifier declared({.num_rounds = 6});
  ASSERT_TRUE(declared.Fit(train, 5).ok());
  EXPECT_EQ(declared.num_classes(), 5);
  const std::vector<double> proba = declared.PredictProba(train.x[0]);
  ASSERT_EQ(proba.size(), 5u);
  EXPECT_LT(proba[3], 0.01);
  EXPECT_LT(proba[4], 0.01);
  EXPECT_GT(EvalAccuracy(declared, train), 0.95);

  GbdtClassifier inferred({.num_rounds = 6});
  GbdtClassifier exact({.num_rounds = 6});
  ASSERT_TRUE(inferred.Fit(train).ok());
  ASSERT_TRUE(exact.Fit(train, 3).ok());
  EXPECT_EQ(inferred.PredictRaw(train.x[0]), exact.PredictRaw(train.x[0]));

  // Labels beyond the declared space are refused.
  GbdtClassifier narrow({.num_rounds = 6});
  EXPECT_FALSE(narrow.Fit(train, 2).ok());
}

TEST(GaussianNaiveBayesTest, SeparatesBlobs) {
  Rng rng(35);
  Dataset train = Blobs(150, 0.6, &rng);
  Dataset test = Blobs(50, 0.6, &rng);
  GaussianNaiveBayes nb;
  ASSERT_TRUE(nb.Fit(train).ok());
  EXPECT_GT(EvalAccuracy(nb, test), 0.95);
}

TEST(GaussianNaiveBayesTest, ProbabilitiesValid) {
  Rng rng(36);
  Dataset train = Blobs(60, 0.8, &rng);
  GaussianNaiveBayes nb;
  ASSERT_TRUE(nb.Fit(train).ok());
  const auto p = nb.PredictProba({100.0, -50.0});  // far outlier
  double sum = 0.0;
  for (double v : p) {
    EXPECT_TRUE(std::isfinite(v));
    EXPECT_GE(v, 0.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(GaussianNaiveBayesTest, HandlesUnseenClassGap) {
  // Labels {0, 2} with class 1 absent.
  Dataset d;
  Rng rng(37);
  for (int i = 0; i < 40; ++i) {
    const bool hi = rng.Bernoulli(0.5);
    d.x.push_back({hi ? 5.0 + rng.Normal(0.0, 0.3) : rng.Normal(0.0, 0.3)});
    d.y.push_back(hi ? 2 : 0);
  }
  GaussianNaiveBayes nb;
  ASSERT_TRUE(nb.Fit(d).ok());
  const auto p = nb.PredictProba({5.0});
  EXPECT_EQ(p.size(), 3u);
  EXPECT_DOUBLE_EQ(p[1], 0.0);
  EXPECT_GT(p[2], 0.9);
}

TEST(VotingClassifierTest, CombinesModels) {
  Rng rng(38);
  Dataset train = Blobs(120, 0.7, &rng);
  Dataset test = Blobs(40, 0.7, &rng);
  VotingClassifier voting;
  voting.AddModel(std::make_unique<RandomForestClassifier>(
      ForestWithTrees(15)));
  voting.AddModel(std::make_unique<GbdtClassifier>(
      GbdtConfig{.num_rounds = 15}));
  voting.AddModel(std::make_unique<GaussianNaiveBayes>());
  ASSERT_TRUE(voting.Fit(train).ok());
  EXPECT_EQ(voting.num_models(), 3u);
  EXPECT_GT(EvalAccuracy(voting, test), 0.95);
  const auto p = voting.PredictProba({0.0, 0.0});
  double sum = 0.0;
  for (double v : p) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(VotingClassifierTest, FailsWithoutModels) {
  Rng rng(39);
  Dataset train = Blobs(10, 0.5, &rng);
  VotingClassifier voting;
  EXPECT_TRUE(voting.Fit(train).IsFailedPrecondition());
}

TEST(VotingClassifierTest, WeightsShiftTheVote) {
  // Two dummy models via NB trained on contradictory labelings would be
  // convoluted; instead check that a heavily weighted model dominates.
  Rng rng(40);
  Dataset train = Blobs(100, 0.6, &rng);
  VotingClassifier voting;
  voting.AddModel(std::make_unique<GaussianNaiveBayes>(), 100.0);
  voting.AddModel(std::make_unique<RandomForestClassifier>(
                      ForestWithTrees(5)),
                  0.01);
  ASSERT_TRUE(voting.Fit(train).ok());
  GaussianNaiveBayes solo;
  ASSERT_TRUE(solo.Fit(train).ok());
  const std::vector<double> row = {1.7, 2.2};
  const auto pv = voting.PredictProba(row);
  const auto ps = solo.PredictProba(row);
  for (size_t k = 0; k < pv.size(); ++k) EXPECT_NEAR(pv[k], ps[k], 0.01);
}

// --- GBDT warm start (the lifecycle retrain path) ------------------------

TEST(GbdtWarmStartTest, ExtendsParentForestAndStaysAccurate) {
  Rng rng(50);
  Dataset history = Blobs(120, 0.6, &rng);
  Dataset window = Blobs(80, 0.6, &rng);
  Dataset test = Blobs(50, 0.6, &rng);

  GbdtConfig parent_config;
  parent_config.num_rounds = 10;
  GbdtClassifier parent(parent_config);
  ASSERT_TRUE(parent.Fit(history).ok());

  GbdtConfig child_config;
  child_config.num_rounds = 5;
  GbdtClassifier child(child_config);
  ASSERT_TRUE(child.FitWarmStart(window, parent).ok());
  // The child keeps the parent's forest and appends its own rounds.
  EXPECT_EQ(child.rounds_used(), 15);
  EXPECT_EQ(child.num_classes(), parent.num_classes());
  EXPECT_GT(EvalAccuracy(child, test), 0.9);
}

TEST(GbdtWarmStartTest, DeterministicGivenParentWindowAndSeed) {
  Rng rng(51);
  Dataset history = Blobs(100, 0.6, &rng);
  Dataset window = Blobs(60, 0.6, &rng);
  GbdtClassifier parent({.num_rounds = 8});
  ASSERT_TRUE(parent.Fit(history).ok());

  GbdtConfig config;
  config.num_rounds = 6;
  config.seed = 99;
  GbdtClassifier a(config), b(config);
  ASSERT_TRUE(a.FitWarmStart(window, parent).ok());
  ASSERT_TRUE(b.FitWarmStart(window, parent).ok());
  for (const auto& row : window.x) {
    EXPECT_EQ(a.PredictRaw(row), b.PredictRaw(row));
  }
  EXPECT_EQ(a.feature_importance(), b.feature_importance());
}

TEST(GbdtWarmStartTest, KeepsParentClassesWhenWindowMissesSome) {
  Rng rng(52);
  Dataset history = Blobs(100, 0.6, &rng);  // 3 classes
  GbdtClassifier parent({.num_rounds = 8});
  ASSERT_TRUE(parent.Fit(history).ok());

  // The retrain window only observed classes 0 and 1; the warm-started
  // model must keep predicting over the parent's full class space.
  Dataset window = Blobs(60, 0.6, &rng);
  std::vector<size_t> keep;
  for (size_t i = 0; i < window.NumRows(); ++i) {
    if (window.y[i] < 2) keep.push_back(i);
  }
  window = window.Subset(keep);
  GbdtClassifier child({.num_rounds = 4});
  ASSERT_TRUE(child.FitWarmStart(window, parent).ok());
  EXPECT_EQ(child.num_classes(), 3);
  EXPECT_EQ(child.PredictProba(window.x[0]).size(), 3u);
}

TEST(GbdtWarmStartTest, RejectsUnfittedParentAndMismatchedWindows) {
  Rng rng(53);
  Dataset history = Blobs(80, 0.6, &rng);
  GbdtClassifier parent({.num_rounds = 6});
  GbdtClassifier child({.num_rounds = 4});

  // Unfitted parent.
  EXPECT_FALSE(child.FitWarmStart(history, parent).ok());
  ASSERT_TRUE(parent.Fit(history).ok());

  // Feature-count mismatch.
  Dataset wrong_features = history;
  wrong_features.feature_names = {"x0", "x1", "extra"};
  for (auto& row : wrong_features.x) row.push_back(0.0);
  EXPECT_FALSE(child.FitWarmStart(wrong_features, parent).ok());

  // Window with labels outside the parent's class space.
  Dataset wrong_labels = history;
  wrong_labels.y[0] = 7;
  EXPECT_FALSE(child.FitWarmStart(wrong_labels, parent).ok());
}

}  // namespace
}  // namespace ml
}  // namespace rvar

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>

#include "common/rng.h"
#include "core/local_model.h"
#include "features/featurizer.h"
#include "ml/calibration.h"
#include "ml/dataset.h"
#include "ml/decision_tree.h"
#include "ml/logistic.h"
#include "ml/metrics.h"
#include "ml/random_forest.h"

namespace autobi {
namespace {

// --- Dataset.

TEST(DatasetTest, AddAndAccess) {
  Dataset d({"f0", "f1"});
  d.Add({1.0, 2.0}, 1);
  d.Add({3.0, 4.0}, 0);
  EXPECT_EQ(d.num_rows(), 2u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_DOUBLE_EQ(d.Feature(1, 0), 3.0);
  EXPECT_EQ(d.Label(0), 1);
  EXPECT_EQ(d.num_positives(), 1u);
  EXPECT_EQ(d.Row(1), (std::vector<double>{3.0, 4.0}));
}

TEST(DatasetTest, SplitPreservesAllRows) {
  Dataset d({"x"});
  for (int i = 0; i < 100; ++i) d.Add({double(i)}, i % 2);
  Rng rng(1);
  Dataset train, holdout;
  d.Split(0.8, rng, &train, &holdout);
  EXPECT_EQ(train.num_rows(), 80u);
  EXPECT_EQ(holdout.num_rows(), 20u);
  EXPECT_EQ(train.num_positives() + holdout.num_positives(), 50u);
}

// Synthetic task: label = x0 > 0.5 XOR-free, learnable by axis splits.
Dataset ThresholdTask(size_t n, Rng& rng, double noise = 0.0) {
  Dataset d({"x0", "x1"});
  for (size_t i = 0; i < n; ++i) {
    double x0 = rng.NextDouble();
    double x1 = rng.NextDouble();
    int label = x0 > 0.5 ? 1 : 0;
    if (noise > 0 && rng.NextBool(noise)) label = 1 - label;
    d.Add({x0, x1}, label);
  }
  return d;
}

// --- Decision tree.

TEST(DecisionTreeTest, LearnsThresholdFunction) {
  Rng rng(2);
  Dataset d = ThresholdTask(400, rng);
  DecisionTree tree;
  TreeOptions opt;
  tree.Fit(d, opt, rng);
  EXPECT_GT(tree.PredictProba({0.9, 0.5}), 0.9);
  EXPECT_LT(tree.PredictProba({0.1, 0.5}), 0.1);
}

TEST(DecisionTreeTest, LearnsConjunction) {
  Rng rng(3);
  Dataset d({"a", "b"});
  for (int i = 0; i < 600; ++i) {
    double a = rng.NextDouble();
    double b = rng.NextDouble();
    d.Add({a, b}, (a > 0.5 && b > 0.5) ? 1 : 0);
  }
  DecisionTree tree;
  tree.Fit(d, TreeOptions{}, rng);
  EXPECT_GT(tree.PredictProba({0.8, 0.8}), 0.85);
  EXPECT_LT(tree.PredictProba({0.8, 0.2}), 0.15);
  EXPECT_LT(tree.PredictProba({0.2, 0.8}), 0.15);
}

TEST(DecisionTreeTest, PureLeafStopsSplitting) {
  Rng rng(4);
  Dataset d({"x"});
  for (int i = 0; i < 50; ++i) d.Add({double(i)}, 1);
  DecisionTree tree;
  tree.Fit(d, TreeOptions{}, rng);
  EXPECT_EQ(tree.num_nodes(), 1u);
  EXPECT_DOUBLE_EQ(tree.PredictProba({25.0}), 1.0);
}

TEST(DecisionTreeTest, MaxDepthRespected) {
  Rng rng(5);
  Dataset d = ThresholdTask(500, rng, 0.3);
  DecisionTree shallow, deep;
  TreeOptions opt;
  opt.max_depth = 1;
  shallow.Fit(d, opt, rng);
  opt.max_depth = 10;
  deep.Fit(d, opt, rng);
  EXPECT_LE(shallow.num_nodes(), 3u);
  EXPECT_GT(deep.num_nodes(), shallow.num_nodes());
}

TEST(DecisionTreeTest, SerializationRoundTrip) {
  Rng rng(6);
  Dataset d = ThresholdTask(300, rng);
  DecisionTree tree;
  tree.Fit(d, TreeOptions{}, rng);
  std::stringstream ss;
  tree.Save(ss);
  DecisionTree loaded;
  ASSERT_TRUE(loaded.Load(ss));
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble()};
    EXPECT_DOUBLE_EQ(tree.PredictProba(x), loaded.PredictProba(x));
  }
}

// --- Random forest.

TEST(RandomForestTest, BeatsChanceOnNoisyTask) {
  Rng rng(7);
  Dataset train = ThresholdTask(800, rng, 0.15);
  Dataset test = ThresholdTask(300, rng, 0.0);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 20;
  forest.Fit(train, opt, rng);
  std::vector<double> scores;
  std::vector<int> labels;
  for (size_t i = 0; i < test.num_rows(); ++i) {
    scores.push_back(forest.PredictProba(test.Row(i)));
    labels.push_back(test.Label(i));
  }
  EXPECT_GT(RocAuc(scores, labels), 0.95);
}

TEST(RandomForestTest, ProbaInUnitInterval) {
  Rng rng(8);
  Dataset d = ThresholdTask(200, rng, 0.2);
  RandomForest forest;
  forest.Fit(d, ForestOptions{}, rng);
  for (int i = 0; i < 50; ++i) {
    double p = forest.PredictProba({rng.NextDouble(), rng.NextDouble()});
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, 1.0);
  }
}

TEST(RandomForestTest, FeatureImportanceIdentifiesSignal) {
  Rng rng(9);
  Dataset d = ThresholdTask(600, rng);  // Only x0 matters.
  RandomForest forest;
  forest.Fit(d, ForestOptions{}, rng);
  std::vector<double> imp = forest.FeatureImportance(2);
  EXPECT_GT(imp[0], imp[1]);
  EXPECT_NEAR(imp[0] + imp[1], 1.0, 1e-9);
}

TEST(RandomForestTest, SerializationRoundTrip) {
  Rng rng(10);
  Dataset d = ThresholdTask(300, rng, 0.1);
  RandomForest forest;
  ForestOptions opt;
  opt.num_trees = 8;
  forest.Fit(d, opt, rng);
  std::stringstream ss;
  forest.Save(ss);
  RandomForest loaded;
  ASSERT_TRUE(loaded.Load(ss));
  EXPECT_EQ(loaded.num_trees(), 8u);
  for (int i = 0; i < 20; ++i) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble()};
    EXPECT_DOUBLE_EQ(forest.PredictProba(x), loaded.PredictProba(x));
  }
}

// --- Logistic regression.

TEST(LogisticTest, LearnsLinearBoundary) {
  Rng rng(11);
  Dataset d({"x", "y"});
  for (int i = 0; i < 500; ++i) {
    double x = rng.NextDouble(-1, 1);
    double y = rng.NextDouble(-1, 1);
    d.Add({x, y}, x + y > 0 ? 1 : 0);
  }
  LogisticRegression lr;
  lr.Fit(d);
  EXPECT_GT(lr.PredictProba({0.8, 0.8}), 0.9);
  EXPECT_LT(lr.PredictProba({-0.8, -0.8}), 0.1);
}

TEST(LogisticTest, SerializationRoundTrip) {
  Rng rng(12);
  Dataset d = ThresholdTask(200, rng);
  LogisticRegression lr;
  lr.Fit(d);
  std::stringstream ss;
  lr.Save(ss);
  LogisticRegression loaded;
  ASSERT_TRUE(loaded.Load(ss));
  for (int i = 0; i < 10; ++i) {
    std::vector<double> x = {rng.NextDouble(), rng.NextDouble()};
    EXPECT_NEAR(lr.PredictProba(x), loaded.PredictProba(x), 1e-9);
  }
}

// --- Calibration.

TEST(PlattTest, RecoversMonotoneMapping) {
  // Raw scores s correlate with P(y=1) = sigmoid(4s - 2); Platt should
  // produce a calibrated output close to the truth.
  Rng rng(13);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 4000; ++i) {
    double s = rng.NextDouble();
    double p = 1.0 / (1.0 + std::exp(-(4 * s - 2)));
    scores.push_back(s);
    labels.push_back(rng.NextBool(p) ? 1 : 0);
  }
  PlattCalibrator cal;
  cal.Fit(scores, labels);
  EXPECT_NEAR(cal.Calibrate(0.5), 0.5, 0.05);
  EXPECT_NEAR(cal.Calibrate(1.0), 1.0 / (1.0 + std::exp(-2.0)), 0.05);
  // Calibration error after Platt should be small.
  std::vector<double> calibrated;
  for (double s : scores) calibrated.push_back(cal.Calibrate(s));
  EXPECT_LT(ExpectedCalibrationError(calibrated, labels), 0.04);
}

TEST(PlattTest, MonotoneInScore) {
  Rng rng(14);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 500; ++i) {
    double s = rng.NextDouble();
    scores.push_back(s);
    labels.push_back(rng.NextBool(s) ? 1 : 0);
  }
  PlattCalibrator cal;
  cal.Fit(scores, labels);
  double prev = -1;
  for (double s = 0.0; s <= 1.0; s += 0.05) {
    double c = cal.Calibrate(s);
    EXPECT_GE(c, prev);
    prev = c;
  }
}

TEST(IsotonicTest, OutputIsMonotoneAndBounded) {
  Rng rng(15);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 800; ++i) {
    double s = rng.NextDouble();
    scores.push_back(s);
    labels.push_back(rng.NextBool(s * s) ? 1 : 0);
  }
  IsotonicCalibrator cal;
  cal.Fit(scores, labels);
  double prev = -1;
  for (double s = 0.0; s <= 1.0; s += 0.02) {
    double c = cal.Calibrate(s);
    EXPECT_GE(c, prev - 1e-12);
    EXPECT_GE(c, 0.0);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
}

TEST(IsotonicTest, PerfectSeparationYieldsStep) {
  std::vector<double> scores = {0.1, 0.2, 0.3, 0.7, 0.8, 0.9};
  std::vector<int> labels = {0, 0, 0, 1, 1, 1};
  IsotonicCalibrator cal;
  cal.Fit(scores, labels);
  EXPECT_DOUBLE_EQ(cal.Calibrate(0.05), 0.0);
  EXPECT_DOUBLE_EQ(cal.Calibrate(0.95), 1.0);
}

TEST(CalibratorSerializationTest, RoundTrips) {
  std::vector<double> scores = {0.1, 0.4, 0.6, 0.9};
  std::vector<int> labels = {0, 0, 1, 1};
  PlattCalibrator platt;
  platt.Fit(scores, labels);
  IsotonicCalibrator iso;
  iso.Fit(scores, labels);
  std::stringstream ss;
  platt.Save(ss);
  iso.Save(ss);
  PlattCalibrator platt2;
  IsotonicCalibrator iso2;
  ASSERT_TRUE(platt2.Load(ss));
  ASSERT_TRUE(iso2.Load(ss));
  for (double s : {0.0, 0.3, 0.5, 0.8, 1.0}) {
    EXPECT_NEAR(platt.Calibrate(s), platt2.Calibrate(s), 1e-12);
    EXPECT_NEAR(iso.Calibrate(s), iso2.Calibrate(s), 1e-12);
  }
}

// --- Model-file validation: every loader rejects a file its predictions
// could not safely use (an out-of-bounds read or a walk that never ends).

// A three-node tree splitting on `feature`, as DecisionTree::Save writes it.
std::string TreeText(int feature, int left = 1, int right = 2) {
  return "tree 3\n" + std::to_string(feature) + " 0.5 " +
         std::to_string(left) + " " + std::to_string(right) +
         " 0.5 10\n-1 0 -1 -1 0.2 5\n-1 0 -1 -1 0.8 5\n";
}

bool LoadTree(const std::string& text) {
  std::istringstream is(text);
  DecisionTree tree;
  return tree.Load(is);
}

bool LoadForest(const std::string& text) {
  std::istringstream is(text);
  RandomForest forest;
  return forest.Load(is);
}

bool LoadIsotonic(const std::string& text) {
  std::istringstream is(text);
  IsotonicCalibrator iso;
  return iso.Load(is);
}

// An untrained LocalModel file with its first forest (N:1 full-feature)
// replaced by `forest` and its calibration method by `calibration`.
std::string LocalModelText(const std::string& forest, int calibration = 0) {
  std::ostringstream os;
  LocalModel().Save(os);
  std::string text = os.str();
  const std::string header = "localmodel 1\n1 0\n";
  EXPECT_EQ(text.compare(0, header.size(), header), 0);
  text.replace(0, header.size(),
               "localmodel 1\n1 " + std::to_string(calibration) + "\n");
  size_t at = text.find("forest 0\n");
  EXPECT_NE(at, std::string::npos);
  return text.replace(at, 9, forest);
}

bool LoadLocalModel(const std::string& text) {
  std::istringstream is(text);
  LocalModel model;
  return model.Load(is);
}

TEST(ModelFileTest, WellFormedFilesLoad) {
  EXPECT_TRUE(LoadTree(TreeText(0)));
  EXPECT_TRUE(LoadForest("forest 1\n" + TreeText(0)));
  EXPECT_TRUE(LoadIsotonic("isotonic 3 0.1 0.2 0.5 0.4 0.5 0.9\n"));
  EXPECT_TRUE(LoadLocalModel(LocalModelText("forest 0\n")));
  const int dim = int(Featurizer::N1FeatureNames(false).size());
  EXPECT_TRUE(LoadLocalModel(LocalModelText("forest 1\n" + TreeText(dim - 1))));
}

TEST(ModelFileTest, RejectsChildNotStrictlyForward) {
  EXPECT_FALSE(LoadTree(TreeText(0, /*left=*/0)));   // Self-loop.
  EXPECT_FALSE(LoadTree(TreeText(0, 1, /*right=*/3)));  // Past the end.
  EXPECT_FALSE(LoadTree(TreeText(0, 1, /*right=*/-1)));
  // A back edge below the root: node 1 points at node 0.
  EXPECT_FALSE(LoadTree(
      "tree 3\n0 0.5 1 2 0.5 10\n0 0.5 0 2 0.2 5\n-1 0 -1 -1 0.8 5\n"));
}

TEST(ModelFileTest, RejectsNegativeFeatureOnInternalNode) {
  EXPECT_FALSE(LoadTree(TreeText(-1)));
  EXPECT_FALSE(LoadTree(TreeText(-7)));
}

TEST(ModelFileTest, RejectsFeaturePastTheClassifierVector) {
  const int dim = int(Featurizer::N1FeatureNames(false).size());
  EXPECT_FALSE(LoadLocalModel(LocalModelText("forest 1\n" + TreeText(dim))));
}

TEST(ModelFileTest, RejectsEmptyTree) {
  EXPECT_FALSE(LoadTree("tree 0\n"));
}

TEST(ModelFileTest, RejectsIsotonicKnotsOutOfOrder) {
  EXPECT_FALSE(LoadIsotonic("isotonic 3 0.1 0.2 0.5 0.4 0.3 0.9\n"));
}

TEST(ModelFileTest, RejectsCalibrationMethodOutsideTheEnum) {
  EXPECT_FALSE(LoadLocalModel(LocalModelText("forest 0\n", 3)));
  EXPECT_FALSE(LoadLocalModel(LocalModelText("forest 0\n", -1)));
}

TEST(ModelFileTest, RejectsCountsTheStreamCannotSupply) {
  const std::string huge = "4611686018427387904";  // 2^62.
  EXPECT_FALSE(LoadTree("tree " + huge + "\n-1 0 -1 -1 0.5 1\n"));
  EXPECT_FALSE(LoadForest("forest " + huge + "\n" + TreeText(0)));
  EXPECT_FALSE(LoadIsotonic("isotonic " + huge + " 0.1 0.2\n"));
}

// --- Metrics.

TEST(MetricsTest, BinaryMetricsKnownValues) {
  std::vector<double> scores = {0.9, 0.8, 0.3, 0.6};
  std::vector<int> labels = {1, 0, 0, 1};
  BinaryMetrics m = ComputeBinaryMetrics(scores, labels);
  EXPECT_EQ(m.true_positives, 2u);
  EXPECT_EQ(m.false_positives, 1u);
  EXPECT_EQ(m.true_negatives, 1u);
  EXPECT_EQ(m.false_negatives, 0u);
  EXPECT_DOUBLE_EQ(m.precision, 2.0 / 3.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(MetricsTest, AucPerfectAndInvertedAndTies) {
  EXPECT_DOUBLE_EQ(RocAuc({0.1, 0.2, 0.8, 0.9}, {0, 0, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.9, 0.8, 0.2, 0.1}, {0, 0, 1, 1}), 0.0);
  EXPECT_DOUBLE_EQ(RocAuc({0.5, 0.5, 0.5, 0.5}, {0, 1, 0, 1}), 0.5);
  EXPECT_DOUBLE_EQ(RocAuc({0.3, 0.4}, {1, 1}), 0.5);  // One class only.
}

TEST(MetricsTest, BrierScore) {
  EXPECT_DOUBLE_EQ(BrierScore({1.0, 0.0}, {1, 0}), 0.0);
  EXPECT_DOUBLE_EQ(BrierScore({0.0, 1.0}, {1, 0}), 1.0);
  EXPECT_DOUBLE_EQ(BrierScore({0.5}, {1}), 0.25);
}

TEST(MetricsTest, EceZeroForPerfectCalibration) {
  // Scores exactly equal to empirical frequency per bin.
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 100; ++i) {
    scores.push_back(0.25);
    labels.push_back(i % 4 == 0 ? 1 : 0);  // 25% positives.
  }
  EXPECT_NEAR(ExpectedCalibrationError(scores, labels, 10), 0.0, 1e-9);
}

}  // namespace
}  // namespace autobi

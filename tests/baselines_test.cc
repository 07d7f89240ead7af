// Unit tests for the baseline predictors on small hand-built cases (the
// integration suite covers them on generated benchmarks).

#include <gtest/gtest.h>

#include <sstream>

#include "baselines/fk_baselines.h"
#include "baselines/ml_fk.h"
#include "common/fs.h"
#include "core/candidates.h"
#include "eval/metrics.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// A clean 3-table star: fact(cust_id, prod_id) -> customers, products.
BiCase CleanStar() {
  BiCase c;
  c.name = "clean_star";
  c.tables.push_back(MakeTable(
      "fact_sales",
      {{"cust_id", {"1", "2", "3", "1", "2", "3", "1", "2"}},
       {"prod_id", {"1", "2", "1", "2", "1", "2", "1", "2"}},
       {"amount", {"5", "6", "7", "8", "9", "10", "11", "12"}}}));
  c.tables.push_back(MakeTable("customers",
                               {{"cust_id", {"1", "2", "3"}},
                                {"cust_name", {"a", "b", "c"}}}));
  c.tables.push_back(MakeTable("products",
                               {{"prod_id", {"1", "2"}},
                                {"prod_name", {"x", "y"}}}));
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {1}}, ColumnRef{2, {0}}, JoinKind::kNToOne});
  return c;
}

TEST(SystemXTest, PerfectOnExactNameStar) {
  BiCase c = CleanStar();
  SystemX sx;
  BiModel pred = sx.Predict(c.tables, nullptr);
  EdgeMetrics m = EvaluateCase(c, pred);
  EXPECT_DOUBLE_EQ(m.precision, 1.0);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(SystemXTest, SilentWhenNamesDiffer) {
  BiCase c = CleanStar();
  // Rename the FK so no exact/augmented match exists.
  c.tables[0].column(0).set_name("buyer_ref");
  SystemX sx;
  BiModel pred = sx.Predict(c.tables, nullptr);
  for (const Join& j : pred.joins) {
    EXPECT_FALSE(j.from == (ColumnRef{0, {0}}));
  }
}

TEST(FastFkTest, ConnectsAllTablesOnCleanCase) {
  BiCase c = CleanStar();
  FastFk fk;
  BiModel pred = fk.Predict(c.tables, nullptr);
  EdgeMetrics m = EvaluateCase(c, pred);
  EXPECT_DOUBLE_EQ(m.recall, 1.0);
}

TEST(McFkTest, FindsCleanJoins) {
  BiCase c = CleanStar();
  McFk fk;
  BiModel pred = fk.Predict(c.tables, nullptr);
  EXPECT_GE(EvaluateCase(c, pred).recall, 0.5);
}

TEST(HoPfTest, RespectsStructuralConstraints) {
  BiCase c = CleanStar();
  HoPf fk;
  BiModel pred = fk.Predict(c.tables, nullptr);
  // FK-once: at most one join per source column.
  std::set<std::pair<int, std::vector<int>>> sources;
  for (const Join& j : pred.joins) {
    EXPECT_TRUE(sources.emplace(j.from.table, j.from.columns).second);
  }
}

TEST(NamePriorTest, SchemaOnlyPredictionNeedsNoData) {
  BiCase c = CleanStar();
  // Erase all rows: NamePrior must still produce the name-matching joins.
  for (Table& t : c.tables) {
    Table empty(t.name());
    for (size_t col = 0; col < t.num_columns(); ++col) {
      empty.AddColumn(t.column(col).name(), t.column(col).type());
    }
    t = std::move(empty);
  }
  NamePrior prior;
  BiModel pred = prior.Predict(c.tables, nullptr);
  EXPECT_FALSE(pred.joins.empty());
}

TEST(BaselineTimingTest, BreakdownStagesPopulated) {
  BiCase c = CleanStar();
  AutoBiTiming timing;
  FastFk fk;
  fk.Predict(c.tables, &timing);
  EXPECT_GE(timing.ucc, 0.0);
  EXPECT_GE(timing.ind, 0.0);
  EXPECT_GE(timing.Total(), 0.0);
}

// --- ML-FK (Rostin-style).

TEST(MlFkModelTest, FeatureVectorMatchesNames) {
  BiCase c = CleanStar();
  CandidateSet cands = GenerateCandidates(c.tables);
  ASSERT_FALSE(cands.candidates.empty());
  FeatureContext ctx{&c.tables, &cands.profiles, nullptr};
  EXPECT_EQ(MlFkModel::Featurize(ctx, cands.candidates[0]).size(),
            MlFkModel::FeatureNames().size());
}

TEST(MlFkModelTest, TrainsAndSeparatesCleanCase) {
  std::vector<BiCase> corpus;
  for (int i = 0; i < 10; ++i) corpus.push_back(CleanStar());
  MlFkModel model;
  model.Train(corpus);
  ASSERT_TRUE(model.trained());
  BiCase c = CleanStar();
  MlFkRostin predictor(&model);
  BiModel pred = predictor.Predict(c.tables, nullptr);
  EXPECT_GE(EvaluateCase(c, pred).recall, 0.5);
}

TEST(MlFkModelTest, UntrainedScoresZero) {
  MlFkModel model;
  EXPECT_FALSE(model.trained());
  BiCase c = CleanStar();
  MlFkRostin predictor(&model);
  BiModel pred = predictor.Predict(c.tables, nullptr);
  EXPECT_TRUE(pred.joins.empty());
}

TEST(MlFkModelTest, SerializationRoundTrip) {
  std::vector<BiCase> corpus;
  for (int i = 0; i < 10; ++i) corpus.push_back(CleanStar());
  MlFkModel model;
  model.Train(corpus);
  std::string path = ::testing::TempDir() + "/mlfk.txt";
  ASSERT_TRUE(model.SaveToFile(path));
  MlFkModel loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));
  BiCase c = CleanStar();
  CandidateSet cands = GenerateCandidates(c.tables);
  FeatureContext ctx{&c.tables, &cands.profiles, nullptr};
  for (const JoinCandidate& cand : cands.candidates) {
    EXPECT_NEAR(model.Score(ctx, cand), loaded.Score(ctx, cand), 1e-9);
  }
}

// A save cut off part-way fails and leaves the previous model file
// byte-identical; an uncut save then writes exactly Save()'s bytes.
TEST(MlFkModelTest, InterruptedSaveKeepsPreviousFile) {
  MlFkModel old_model;
  MlFkModel new_model;
  new_model.Train(std::vector<BiCase>(10, CleanStar()));
  std::ostringstream os;
  new_model.Save(os);
  const std::string new_bytes = os.str();

  std::string path = ::testing::TempDir() + "/mlfk_interrupted.txt";
  ASSERT_TRUE(old_model.SaveToFile(path));
  StatusOr<std::string> old_bytes = ReadFileToString(path);
  ASSERT_TRUE(old_bytes.ok());
  ASSERT_NE(*old_bytes, new_bytes);

  EXPECT_FALSE(SaveWithFileSizeLimit(new_bytes.size() / 2, [&] {
    return new_model.SaveToFile(path);
  }));
  EXPECT_EQ(ReadFileToString(path).value(), *old_bytes);

  ASSERT_TRUE(new_model.SaveToFile(path));
  EXPECT_EQ(ReadFileToString(path).value(), new_bytes);
}

}  // namespace
}  // namespace autobi

#include <gtest/gtest.h>

#include <sstream>

#include "common/fs.h"
#include "core/auto_bi.h"
#include "core/bi_model.h"
#include "core/candidates.h"
#include "core/trainer.h"
#include "features/featurizer.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// --- BiModel / Join.

TEST(JoinTest, OneToOneNormalizationIsOrientationInsensitive) {
  Join a{ColumnRef{0, {1}}, ColumnRef{1, {0}}, JoinKind::kOneToOne};
  Join b{ColumnRef{1, {0}}, ColumnRef{0, {1}}, JoinKind::kOneToOne};
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.Normalized().from, b.Normalized().from);
}

TEST(JoinTest, NToOneDirectionMatters) {
  Join a{ColumnRef{0, {1}}, ColumnRef{1, {0}}, JoinKind::kNToOne};
  Join b{ColumnRef{1, {0}}, ColumnRef{0, {1}}, JoinKind::kNToOne};
  EXPECT_FALSE(a == b);
}

TEST(BiModelTest, ContainsUsesNormalizedEquality) {
  BiModel m;
  m.joins.push_back(
      Join{ColumnRef{1, {0}}, ColumnRef{0, {1}}, JoinKind::kOneToOne});
  EXPECT_TRUE(m.Contains(
      Join{ColumnRef{0, {1}}, ColumnRef{1, {0}}, JoinKind::kOneToOne}));
  EXPECT_FALSE(m.Contains(
      Join{ColumnRef{0, {1}}, ColumnRef{1, {0}}, JoinKind::kNToOne}));
}

// --- Candidate generation on a hand-built mini-case.

// fact(cust_id, amount) -> customers(id, name); customers 1:1 cust_details;
// products is a decoy whose key range accidentally contains cust_id (a
// negative candidate, so classifier training sees both classes).
std::vector<Table> MiniTables() {
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact_sales", {{"cust_id", {"1", "2", "2", "3", "1", "3", "2", "1"}},
                     {"amount", {"10", "20", "30", "40", "55", "60", "70",
                                 "80"}}}));
  tables.push_back(MakeTable(
      "customers", {{"id", {"1", "2", "3"}},
                    {"name", {"ann", "bob", "cat"}}}));
  tables.push_back(MakeTable(
      "cust_details", {{"id", {"1", "2", "3"}},
                       {"email", {"a@x", "b@x", "c@x"}}}));
  tables.push_back(MakeTable(
      "products", {{"sku", SeqCells(1, 9)},
                   {"label", {"p1", "p2", "p3", "p4", "p5", "p6", "p7", "p8",
                              "p9"}}}));
  return tables;
}

TEST(CandidatesTest, FindsFkAndOneToOneShapes) {
  CandidateSet cs = GenerateCandidates(MiniTables());
  bool fk_found = false;
  bool one_found = false;
  for (const JoinCandidate& c : cs.candidates) {
    if (c.src.table == 0 && c.src.columns == std::vector<int>{0} &&
        !c.one_to_one) {
      fk_found = true;
      EXPECT_DOUBLE_EQ(c.left_containment, 1.0);
    }
    if (c.one_to_one) {
      one_found = true;
      // Canonical orientation: lower table first.
      EXPECT_LT(c.src.table, c.dst.table);
      EXPECT_GE(std::min(c.left_containment, c.right_containment), 0.9);
    }
  }
  EXPECT_TRUE(fk_found);
  EXPECT_TRUE(one_found);
}

TEST(CandidatesTest, NoDuplicateCandidates) {
  CandidateSet cs = GenerateCandidates(MiniTables());
  for (size_t i = 0; i < cs.candidates.size(); ++i) {
    for (size_t j = i + 1; j < cs.candidates.size(); ++j) {
      bool same = cs.candidates[i].src == cs.candidates[j].src &&
                  cs.candidates[i].dst == cs.candidates[j].dst;
      EXPECT_FALSE(same);
    }
  }
}

TEST(CandidatesTest, TimingsPopulated) {
  CandidateSet cs = GenerateCandidates(MiniTables());
  EXPECT_GE(cs.ucc_seconds, 0.0);
  EXPECT_GE(cs.ind_seconds, 0.0);
  EXPECT_EQ(cs.profiles.size(), 4u);
  EXPECT_EQ(cs.uccs.size(), 4u);
}

// --- Featurizer.

TEST(FeaturizerTest, VectorLengthsMatchNameLists) {
  std::vector<Table> tables = MiniTables();
  CandidateSet cs = GenerateCandidates(tables);
  ASSERT_FALSE(cs.candidates.empty());
  FeatureContext ctx{&tables, &cs.profiles, nullptr};
  Featurizer f;
  const JoinCandidate& cand = cs.candidates[0];
  EXPECT_EQ(f.FeaturizeN1(ctx, cand, false).size(),
            Featurizer::N1FeatureNames(false).size());
  EXPECT_EQ(f.FeaturizeN1(ctx, cand, true).size(),
            Featurizer::N1FeatureNames(true).size());
  EXPECT_EQ(f.FeaturizeOneToOne(ctx, cand, false).size(),
            Featurizer::OneToOneFeatureNames(false).size());
  EXPECT_EQ(f.FeaturizeOneToOne(ctx, cand, true).size(),
            Featurizer::OneToOneFeatureNames(true).size());
}

TEST(FeaturizerTest, SchemaOnlyIsPrefixOfFull) {
  std::vector<Table> tables = MiniTables();
  CandidateSet cs = GenerateCandidates(tables);
  FeatureContext ctx{&tables, &cs.profiles, nullptr};
  Featurizer f;
  const JoinCandidate& cand = cs.candidates[0];
  auto full = f.FeaturizeN1(ctx, cand, false);
  auto schema = f.FeaturizeN1(ctx, cand, true);
  ASSERT_LT(schema.size(), full.size());
  for (size_t i = 0; i < schema.size(); ++i) {
    EXPECT_DOUBLE_EQ(schema[i], full[i]);
  }
}

TEST(FeaturizerTest, NameSimilarityFeatureReflectsMatch) {
  std::vector<Table> tables = MiniTables();
  CandidateSet cs = GenerateCandidates(tables);
  FeatureContext ctx{&tables, &cs.profiles, nullptr};
  Featurizer f;
  // Find the fact.cust_id -> customers.id candidate: its table-augmented
  // similarity ("customers id" vs "cust id") should be > 0.
  for (const JoinCandidate& c : cs.candidates) {
    if (c.src.table == 0 && c.dst.table == 1 && !c.one_to_one) {
      auto v = f.FeaturizeN1(ctx, c, false);
      EXPECT_GT(v[4], 0.5);  // Embedding_similarity with table augment.
    }
  }
}

TEST(NameFrequencyTest, FrequencyIsRelativeToMax) {
  NameFrequency freq;
  freq.Observe("id");
  freq.Observe("id");
  freq.Observe("ID");  // Normalizes to the same key.
  freq.Observe("customer_name");
  EXPECT_DOUBLE_EQ(freq.Frequency("id"), 1.0);
  EXPECT_DOUBLE_EQ(freq.Frequency("customer_name"), 1.0 / 3.0);
  EXPECT_DOUBLE_EQ(freq.Frequency("unseen"), 0.0);
}

// --- Labeling with transitivity.

BiCase MiniCase() {
  BiCase c;
  c.tables = MiniTables();
  // GT: fact.cust_id -> customers.id; customers.id 1:1 cust_details.id.
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  c.ground_truth.joins.push_back(
      Join{ColumnRef{1, {0}}, ColumnRef{2, {0}}, JoinKind::kOneToOne}
          .Normalized());
  return c;
}

TEST(LabelTest, ExactMatchesLabeledPositive) {
  BiCase c = MiniCase();
  CandidateSet cs = GenerateCandidates(c.tables);
  std::vector<int> labels =
      LabelCandidates(c, cs.candidates, /*label_transitivity=*/false);
  for (size_t i = 0; i < cs.candidates.size(); ++i) {
    const JoinCandidate& cand = cs.candidates[i];
    if (cand.src == (ColumnRef{0, {0}}) && cand.dst == (ColumnRef{1, {0}})) {
      EXPECT_EQ(labels[i], 1);
    }
  }
}

TEST(LabelTest, TransitivityMarksIndirectPairs) {
  BiCase c = MiniCase();
  CandidateSet cs = GenerateCandidates(c.tables);
  // fact.cust_id -> cust_details.id is not a GT join, but transitively
  // positive (fact -> customers 1:1 cust_details).
  int idx = -1;
  for (size_t i = 0; i < cs.candidates.size(); ++i) {
    if (cs.candidates[i].src == (ColumnRef{0, {0}}) &&
        cs.candidates[i].dst == (ColumnRef{2, {0}})) {
      idx = int(i);
    }
  }
  ASSERT_GE(idx, 0) << "expected candidate fact->cust_details";
  std::vector<int> without =
      LabelCandidates(c, cs.candidates, /*label_transitivity=*/false);
  std::vector<int> with =
      LabelCandidates(c, cs.candidates, /*label_transitivity=*/true);
  EXPECT_EQ(without[size_t(idx)], 0);
  EXPECT_EQ(with[size_t(idx)], 1);
}

// --- EdgesToModel.

TEST(EdgesToModelTest, DeduplicatesOneToOnePairs) {
  JoinGraph g(2);
  g.AddOneToOneEdge(0, 1, {0}, {0}, 0.9);
  BiModel m = EdgesToModel(g, {0, 1});
  ASSERT_EQ(m.joins.size(), 1u);
  EXPECT_EQ(m.joins[0].kind, JoinKind::kOneToOne);
}

// --- LocalModel save/load.

TEST(LocalModelTest, SaveLoadPreservesScores) {
  BiCase c = MiniCase();
  std::vector<BiCase> corpus(8, c);
  TrainerOptions opt;
  opt.forest.num_trees = 8;
  LocalModel model = TrainLocalModel(corpus, opt);
  ASSERT_TRUE(model.trained());

  std::string path = ::testing::TempDir() + "/autobi_model.txt";
  ASSERT_TRUE(model.SaveToFile(path));
  LocalModel loaded;
  ASSERT_TRUE(loaded.LoadFromFile(path));

  CandidateSet cs = GenerateCandidates(c.tables);
  FeatureContext ctx{&c.tables, &cs.profiles, &model.frequency()};
  FeatureContext lctx{&c.tables, &cs.profiles, &loaded.frequency()};
  for (const JoinCandidate& cand : cs.candidates) {
    EXPECT_NEAR(model.Score(ctx, cand, false),
                loaded.Score(lctx, cand, false), 1e-9);
    EXPECT_NEAR(model.Score(ctx, cand, true), loaded.Score(lctx, cand, true),
                1e-9);
  }
}

// A save cut off part-way fails and leaves the previous model file
// byte-identical; an uncut save then writes exactly Save()'s bytes.
TEST(LocalModelTest, InterruptedSaveKeepsPreviousFile) {
  BiCase c = MiniCase();
  TrainerOptions small;
  small.forest.num_trees = 2;
  LocalModel old_model = TrainLocalModel(std::vector<BiCase>(4, c), small);
  TrainerOptions large;
  large.forest.num_trees = 8;
  LocalModel new_model = TrainLocalModel(std::vector<BiCase>(8, c), large);
  std::ostringstream os;
  os.precision(17);
  new_model.Save(os);
  const std::string new_bytes = os.str();

  std::string path = ::testing::TempDir() + "/autobi_model_interrupted.txt";
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

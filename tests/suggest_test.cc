#include "core/suggest.h"

#include <gtest/gtest.h>

#include "core/trainer.h"
#include "tests/test_util.h"

namespace autobi {
namespace {

// fact(cust_id, prod_id) with two dims whose key ranges overlap, so
// cust_id has two plausible targets; plus an unrelated decoy dim.
std::vector<Table> SuggestTables() {
  std::vector<Table> tables;
  tables.push_back(MakeTable(
      "fact", {{"cust_id", {"1", "2", "3", "1", "2", "3", "2", "1"}},
               {"prod_id", {"1", "2", "3", "4", "1", "2", "3", "4"}},
               {"amt", {"9", "8", "7", "6", "5", "4", "3", "2"}}}));
  tables.push_back(MakeTable("customers", {{"cust_id", SeqCells(1, 5)},
                                           {"nm", {"a", "b", "c", "d",
                                                   "e"}}}));
  tables.push_back(MakeTable("products", {{"prod_id", SeqCells(1, 6)},
                                          {"lbl", {"p", "q", "r", "s", "t",
                                                   "u"}}}));
  return tables;
}

BiCase SuggestCase() {
  BiCase c;
  c.tables = SuggestTables();
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {0}}, ColumnRef{1, {0}}, JoinKind::kNToOne});
  c.ground_truth.joins.push_back(
      Join{ColumnRef{0, {1}}, ColumnRef{2, {0}}, JoinKind::kNToOne});
  return c;
}

LocalModel TinyModel() {
  std::vector<BiCase> corpus(12, SuggestCase());
  TrainerOptions opt;
  opt.forest.num_trees = 8;
  return TrainLocalModel(corpus, opt);
}

TEST(SuggestJoinsTest, GroupsBySourceAndRanksByProbability) {
  LocalModel model = TinyModel();
  auto groups = SuggestJoins(SuggestTables(), model, 3);
  ASSERT_FALSE(groups.empty());
  for (const auto& group : groups) {
    ASSERT_FALSE(group.empty());
    // Same source column in every suggestion of a group.
    for (const JoinSuggestion& s : group) {
      EXPECT_EQ(s.join.from.table, group[0].join.from.table);
    }
    // Descending probability.
    for (size_t i = 1; i < group.size(); ++i) {
      EXPECT_GE(group[i - 1].probability, group[i].probability);
    }
  }
  // Groups themselves ordered strongest first.
  for (size_t g = 1; g < groups.size(); ++g) {
    EXPECT_GE(groups[g - 1].front().probability,
              groups[g].front().probability);
  }
}

TEST(SuggestJoinsTest, ChosenFlagMatchesAutoBiOutput) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  AutoBi auto_bi(&model, AutoBiOptions{});
  BiModel predicted = auto_bi.Predict(tables).model;
  size_t chosen = 0;
  for (const auto& group : SuggestJoins(tables, model)) {
    for (const JoinSuggestion& s : group) {
      if (s.chosen_by_auto_bi) {
        ++chosen;
        EXPECT_TRUE(predicted.Contains(s.join));
      }
    }
  }
  EXPECT_GE(chosen, predicted.joins.size());
}

TEST(SuggestJoinsTest, TopKTruncates) {
  LocalModel model = TinyModel();
  for (const auto& group : SuggestJoins(SuggestTables(), model, 1)) {
    EXPECT_EQ(group.size(), 1u);
  }
}

TEST(PredictJoinsForNewTableTest, FindsJoinForAppendedTable) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  // Confirmed model: the two fact joins.
  BiModel confirmed = SuggestCase().ground_truth;
  // Append a second event table referencing customers — the same N:1
  // pattern the tiny model was trained on.
  tables.push_back(MakeTable(
      "visits", {{"cust_id", {"1", "1", "2", "3", "2", "1"}},
                 {"dur", {"4", "5", "6", "7", "8", "9"}}}));
  std::vector<Join> joins =
      PredictJoinsForNewTable(tables, confirmed, model);
  ASSERT_FALSE(joins.empty());
  for (const Join& j : joins) {
    EXPECT_TRUE(j.from.table == 3 || j.to.table == 3);
  }
}

// The new table's predict runs the same global solve as AutoBi::Predict, so
// it honours the options that shape it: visits -> customers is a recall-mode
// join, and precision-only mode leaves it out.
TEST(PredictJoinsForNewTableTest, PrecisionOnlyModeSkipsRecallJoins) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  BiModel confirmed = SuggestCase().ground_truth;
  tables.push_back(MakeTable(
      "visits", {{"cust_id", {"1", "1", "2", "3", "2", "1"}},
                 {"dur", {"4", "5", "6", "7", "8", "9"}}}));
  AutoBiOptions full;
  ASSERT_FALSE(PredictJoinsForNewTable(tables, confirmed, model, full).empty());
  AutoBiOptions precision_only;
  precision_only.mode = AutoBiMode::kPrecisionOnly;
  EXPECT_TRUE(
      PredictJoinsForNewTable(tables, confirmed, model, precision_only)
          .empty());
}

TEST(PredictJoinsForNewTableTest, ConfirmedJoinsOccupyStructure) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  BiModel confirmed = SuggestCase().ground_truth;
  tables.push_back(MakeTable("extra", {{"k", SeqCells(1, 4)}}));
  std::vector<Join> joins =
      PredictJoinsForNewTable(tables, confirmed, model);
  // Whatever is returned involves only the new table; the confirmed joins
  // are not re-reported.
  for (const Join& j : joins) {
    EXPECT_FALSE(confirmed.Contains(j));
    EXPECT_TRUE(j.from.table == 3 || j.to.table == 3);
  }
}

TEST(PredictJoinsForNewTableTest, UnjoinableTableYieldsNothing) {
  LocalModel model = TinyModel();
  std::vector<Table> tables = SuggestTables();
  BiModel confirmed = SuggestCase().ground_truth;
  tables.push_back(MakeTable(
      "disconnected", {{"zz", {"9001", "9002", "9003"}}}));
  EXPECT_TRUE(PredictJoinsForNewTable(tables, confirmed, model).empty());
}

}  // namespace
}  // namespace autobi

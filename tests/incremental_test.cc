// Differential-equivalence suite for the incremental re-prediction engine
// (core/incremental.h): for every mutation kind — no-op, append rows, add
// table, drop table, rename column, rename table, replace cells —
// PredictIncremental over the mutated tables must be bit-identical to a
// cold Predict on the same tables: joins, graph, backbone/recall edge sets,
// solver stats, degradation markers, and the JSON model export, at 1/2/8
// threads. The observability counters must also report exactly how much
// work the delta path did.

#include "core/incremental.h"

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "common/run_context.h"
#include "common/strings.h"
#include "core/auto_bi.h"
#include "core/model_export.h"
#include "core/trainer.h"
#include "synth/corpus.h"
#include "synth/lake.h"
#include "table/table.h"

namespace autobi {
namespace {

// Shared tiny trained model (the suite probes the delta machinery, not
// classifier quality).
const LocalModel& TestModel() {
  static const LocalModel* model = [] {
    CorpusOptions copt;
    copt.seed = 321;
    copt.training_cases = 12;
    TrainerOptions topt;
    topt.forest.num_trees = 4;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(copt), topt));
  }();
  return *model;
}

// A 4-table snowflake: orders -> customers -> regions, orders -> products.
// Six unordered pairs, so per-pair reuse counters are meaningful.
std::vector<Table> BaseTables() {
  std::vector<Table> tables;

  Table customers("customers");
  Column& cid = customers.AddColumn("cust_id");
  Column& cname = customers.AddColumn("cust_name");
  Column& cregion = customers.AddColumn("region_id");
  for (int i = 0; i < 40; ++i) {
    cid.AppendInt(1000 + i);
    cname.AppendString("customer_" + std::to_string(i));
    cregion.AppendInt(i % 5);
  }
  tables.push_back(std::move(customers));

  Table regions("regions");
  Column& rid = regions.AddColumn("region_id");
  Column& rname = regions.AddColumn("region_name");
  for (int i = 0; i < 5; ++i) {
    rid.AppendInt(i);
    rname.AppendString("region_" + std::to_string(i));
  }
  tables.push_back(std::move(regions));

  Table products("products");
  Column& pid = products.AddColumn("prod_id");
  Column& pname = products.AddColumn("prod_name");
  for (int i = 0; i < 30; ++i) {
    pid.AppendInt(500 + i);
    pname.AppendString("product_" + std::to_string(i));
  }
  tables.push_back(std::move(products));

  Table orders("orders");
  Column& oid = orders.AddColumn("order_id");
  Column& ocust = orders.AddColumn("cust_id");
  Column& oprod = orders.AddColumn("prod_id");
  Column& oqty = orders.AddColumn("quantity");
  for (int i = 0; i < 150; ++i) {
    oid.AppendInt(i + 1);
    ocust.AppendInt(1000 + (i * 13) % 40);
    oprod.AppendInt(500 + (i * 7) % 30);
    oqty.AppendInt(1 + i % 9);
  }
  tables.push_back(std::move(orders));

  return tables;
}

// The full bit-identity contract, field by field.
void ExpectBitIdentical(const AutoBiResult& incr, const AutoBiResult& cold,
                        const std::vector<Table>& tables) {
  ASSERT_EQ(incr.model.joins.size(), cold.model.joins.size());
  for (size_t i = 0; i < cold.model.joins.size(); ++i) {
    EXPECT_TRUE(incr.model.joins[i] == cold.model.joins[i]) << i;
  }
  EXPECT_TRUE(incr.graph.StructurallyEqual(cold.graph));
  EXPECT_EQ(incr.backbone_edges, cold.backbone_edges);
  EXPECT_EQ(incr.recall_edges, cold.recall_edges);
  EXPECT_EQ(incr.solver_stats.one_mca_calls, cold.solver_stats.one_mca_calls);
  EXPECT_EQ(incr.solver_stats.nodes, cold.solver_stats.nodes);
  EXPECT_EQ(incr.solver_stats.budget_exhausted,
            cold.solver_stats.budget_exhausted);
  EXPECT_EQ(incr.degradation.Any(), cold.degradation.Any());
  EXPECT_EQ(incr.degradation.ucc.degraded, cold.degradation.ucc.degraded);
  EXPECT_EQ(incr.degradation.ind.degraded, cold.degradation.ind.degraded);
  EXPECT_EQ(incr.degradation.local_inference.degraded,
            cold.degradation.local_inference.degraded);
  EXPECT_EQ(incr.degradation.global_predict.degraded,
            cold.degradation.global_predict.degraded);
  StatusOr<std::string> incr_json = ExportJson(tables, incr.model);
  StatusOr<std::string> cold_json = ExportJson(tables, cold.model);
  ASSERT_TRUE(incr_json.ok() && cold_json.ok());
  EXPECT_EQ(*incr_json, *cold_json);
}

struct Mutation {
  const char* name;
  std::function<void(std::vector<Table>*)> apply;
  // Expected counters of the incremental run after the mutation
  // (4 base tables -> 6 unordered pairs).
  size_t reprofiled;
  size_t delta_merged;
  size_t rescored;
  size_t reused;
  // The table the mutation appends rows to (keeping every column type), or
  // -1: a caller keeping snapshots records the append on that table's.
  int appended = -1;
};

std::vector<Mutation> Mutations() {
  std::vector<Mutation> muts;
  muts.push_back({"no-op", [](std::vector<Table>*) {}, 0, 0, 0, 6});
  muts.push_back({"append-rows",
                  [](std::vector<Table>* t) {
                    Table& orders = (*t)[3];
                    for (int i = 150; i < 162; ++i) {
                      orders.column(0).AppendInt(i + 1);
                      orders.column(1).AppendInt(1000 + (i * 13) % 40);
                      orders.column(2).AppendInt(500 + (i * 7) % 30);
                      orders.column(3).AppendInt(1 + i % 9);
                    }
                  },
                  0, 1, 3, 3, 3});
  muts.push_back({"add-table",
                  [](std::vector<Table>* t) {
                    Table shippers("shippers");
                    Column& sid = shippers.AddColumn("shipper_id");
                    Column& sname = shippers.AddColumn("shipper_name");
                    for (int i = 0; i < 6; ++i) {
                      sid.AppendInt(i);
                      sname.AppendString("shipper_" + std::to_string(i));
                    }
                    t->push_back(std::move(shippers));
                  },
                  1, 0, 4, 6});
  muts.push_back({"drop-table",
                  [](std::vector<Table>* t) { t->erase(t->begin() + 2); },
                  0, 0, 0, 3});
  muts.push_back({"rename-column",
                  [](std::vector<Table>* t) {
                    (*t)[0].column(1).set_name("customer_name");
                  },
                  0, 0, 3, 3});
  muts.push_back({"rename-table",
                  [](std::vector<Table>* t) { (*t)[2].set_name("catalog"); },
                  0, 0, 3, 3});
  muts.push_back({"replace-cells",
                  [](std::vector<Table>* t) {
                    Table& orders = (*t)[3];
                    Column fresh("quantity", ValueType::kInt);
                    for (int i = 0; i < 150; ++i) fresh.AppendInt(9 - i % 9);
                    orders.column(3) = std::move(fresh);
                  },
                  1, 0, 3, 3});
  return muts;
}

class IncrementalDifferentialTest : public ::testing::TestWithParam<int> {};

void ExpectSameCounters(const IncrementalStats& a, const IncrementalStats& b) {
  EXPECT_EQ(a.used, b.used);
  EXPECT_EQ(a.tables_reprofiled, b.tables_reprofiled);
  EXPECT_EQ(a.tables_delta_merged, b.tables_delta_merged);
  EXPECT_EQ(a.pairs_rescored, b.pairs_rescored);
  EXPECT_EQ(a.pairs_reused, b.pairs_reused);
  EXPECT_EQ(a.warm_start_used, b.warm_start_used);
}

// Each mutation runs through both entry forms: self-hashed (no snapshots)
// and with caller snapshots kept the way the serving engine keeps them — a
// fresh SnapshotTable per table, plus the append record on the appended
// table. The two must agree with each other, counters included, and with a
// cold Predict.
TEST_P(IncrementalDifferentialTest, EveryMutationKindMatchesColdPredict) {
  const int threads = GetParam();
  AutoBiOptions options;
  options.threads = threads;
  AutoBi predictor(&TestModel(), options);

  for (const Mutation& mut : Mutations()) {
    StatusOr<AutoBiResult> self_hashed = Status::Internal("not run");
    for (const bool caller_snapshots : {false, true}) {
      SCOPED_TRACE(StrFormat("mutation=%s threads=%d caller_snapshots=%d",
                             mut.name, threads, int(caller_snapshots)));
      IncrementalState state;
      std::vector<Table> tables = BaseTables();
      std::vector<TableSnapshot> snapshots = SnapshotTables(tables, threads);
      auto predict = [&] {
        return predictor.PredictIncremental(
            tables, nullptr, &state, caller_snapshots ? &snapshots : nullptr);
      };

      // Seed: first incremental call is a cold rebuild through the engine.
      StatusOr<AutoBiResult> seed = predict();
      ASSERT_TRUE(seed.ok()) << seed.status().ToString();
      EXPECT_FALSE(seed->incremental.used);
      EXPECT_EQ(seed->incremental.tables_reprofiled, 4u);
      EXPECT_EQ(seed->incremental.pairs_rescored, 6u);
      ASSERT_TRUE(state.valid);

      // Differential step: incremental on the mutated tables vs cold.
      std::vector<TableSnapshot> before = std::move(snapshots);
      std::vector<ValueType> types_before;
      if (mut.appended >= 0) {
        types_before = ColumnTypes(tables[size_t(mut.appended)]);
      }
      mut.apply(&tables);
      snapshots = SnapshotTables(tables, threads);
      if (mut.appended >= 0) {
        const size_t t = size_t(mut.appended);
        snapshots[t] =
            SnapshotAppendedTable(tables[t], before[t], types_before);
        ASSERT_TRUE(snapshots[t].appended.has_value());
      }
      StatusOr<AutoBiResult> incr = predict();
      ASSERT_TRUE(incr.ok()) << incr.status().ToString();
      StatusOr<AutoBiResult> cold = predictor.Predict(tables, nullptr);
      ASSERT_TRUE(cold.ok());
      ExpectBitIdentical(*incr, *cold, tables);

      EXPECT_TRUE(incr->incremental.used);
      EXPECT_EQ(incr->incremental.tables_reprofiled, mut.reprofiled);
      EXPECT_EQ(incr->incremental.tables_delta_merged, mut.delta_merged);
      EXPECT_EQ(incr->incremental.pairs_rescored, mut.rescored);
      EXPECT_EQ(incr->incremental.pairs_reused, mut.reused);
      if (caller_snapshots) {
        ASSERT_TRUE(self_hashed.ok());
        ExpectBitIdentical(*incr, *self_hashed, tables);
        ExpectSameCounters(incr->incremental, self_hashed->incremental);
      } else {
        self_hashed = incr;
      }

      // The committed state is a sound baseline: an immediate no-op re-run
      // reuses everything, warm-starts the solve, and still matches cold.
      StatusOr<AutoBiResult> again = predict();
      ASSERT_TRUE(again.ok());
      EXPECT_TRUE(again->incremental.used);
      EXPECT_EQ(again->incremental.tables_reprofiled, 0u);
      EXPECT_EQ(again->incremental.pairs_rescored, 0u);
      EXPECT_TRUE(again->incremental.warm_start_used);
      ExpectBitIdentical(*again, *cold, tables);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalDifferentialTest,
                         ::testing::Values(1, 2, 8));

// Appends `count` copies of existing rows (cycling through the table).
void AppendCopiedRows(Table* table, size_t count) {
  const size_t rows = table->num_rows();
  for (size_t k = 0; k < count; ++k) {
    const size_t r = (k * 7) % rows;
    for (size_t c = 0; c < table->num_columns(); ++c) {
      Column& col = table->column(c);
      if (col.IsNull(r)) {
        col.AppendNull();
      } else if (col.type() == ValueType::kInt) {
        col.AppendInt(col.Int(r));
      } else if (col.type() == ValueType::kDouble) {
        col.AppendDouble(col.Double(r));
      } else {
        std::string value = col.Str(r);
        col.AppendString(std::move(value));
      }
    }
  }
}

class IncrementalLakeTest : public ::testing::TestWithParam<int> {};

// The stateful path with blocking on a lake: an empty state rebuilds
// through the global blocking plan (the full rescan a cold Predict runs),
// and deltas scope the plan to the pairs touching a changed table, each
// admitted pair-locally, and scan only its active pairs. Every step matches
// a cold Predict bit for bit.
TEST_P(IncrementalLakeTest, FullAndPartialRescansMatchColdPredict) {
  const int threads = GetParam();
  Rng rng(2024);
  LakeGenOptions gen;
  gen.num_tables = 60;
  std::vector<Table> tables = GenerateLake(gen, rng).tables;
  ASSERT_EQ(tables.size(), 60u);
  AutoBiOptions options;
  options.threads = threads;
  AutoBi predictor(&TestModel(), options);
  IncrementalState state;

  // Empty state: a full rescan, with the cold run's blocking plan.
  StatusOr<AutoBiResult> rebuilt =
      predictor.PredictIncremental(tables, nullptr, &state);
  StatusOr<AutoBiResult> cold = predictor.Predict(tables, nullptr);
  ASSERT_TRUE(rebuilt.ok() && cold.ok());
  ExpectBitIdentical(*rebuilt, *cold, tables);
  EXPECT_FALSE(rebuilt->incremental.used);
  EXPECT_EQ(rebuilt->incremental.pairs_rescored, 60u * 59u / 2u);
  const BlockingStats& got = rebuilt->ind_stats.blocking;
  const BlockingStats& want = cold->ind_stats.blocking;
  EXPECT_GT(want.column_pairs_pruned, 0u);
  EXPECT_EQ(got.column_pairs_total, want.column_pairs_total);
  EXPECT_EQ(got.column_pairs_admitted, want.column_pairs_admitted);
  EXPECT_EQ(got.column_pairs_pruned, want.column_pairs_pruned);
  EXPECT_EQ(got.table_pairs_total, want.table_pairs_total);
  EXPECT_EQ(got.table_pairs_active, want.table_pairs_active);
  EXPECT_EQ(rebuilt->ind_stats.pairs_scanned, cold->ind_stats.pairs_scanned);
  ASSERT_TRUE(state.valid);

  // One-table append: a partial rescan of the 59 pairs touching it.
  size_t largest = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].num_rows() > tables[largest].num_rows()) largest = i;
  }
  AppendCopiedRows(&tables[largest], 25);
  StatusOr<AutoBiResult> appended =
      predictor.PredictIncremental(tables, nullptr, &state);
  cold = predictor.Predict(tables, nullptr);
  ASSERT_TRUE(appended.ok() && cold.ok());
  ExpectBitIdentical(*appended, *cold, tables);
  EXPECT_TRUE(appended->incremental.used);
  EXPECT_EQ(appended->incremental.tables_reprofiled, 0u);
  EXPECT_EQ(appended->incremental.tables_delta_merged, 1u);
  EXPECT_EQ(appended->incremental.pairs_rescored, 59u);
  EXPECT_EQ(appended->incremental.pairs_reused, 59u * 58u / 2u);
  EXPECT_EQ(appended->ind_stats.pairs_scanned,
            appended->ind_stats.blocking.table_pairs_active);
  EXPECT_EQ(appended->ind_stats.blocking.table_pairs_total, 2u * 59u);

  // Appends to a third of the tables: a partial rescan of the 990 pairs
  // touching them.
  for (size_t i = 0; i < tables.size(); i += 3) {
    AppendCopiedRows(&tables[i], 5);
  }
  StatusOr<AutoBiResult> spread =
      predictor.PredictIncremental(tables, nullptr, &state);
  cold = predictor.Predict(tables, nullptr);
  ASSERT_TRUE(spread.ok() && cold.ok());
  ExpectBitIdentical(*spread, *cold, tables);
  EXPECT_TRUE(spread->incremental.used);
  EXPECT_EQ(spread->incremental.tables_delta_merged, 20u);
  EXPECT_EQ(spread->incremental.pairs_rescored, 990u);
  EXPECT_EQ(spread->incremental.pairs_reused, 40u * 39u / 2u);
  EXPECT_EQ(spread->ind_stats.blocking.table_pairs_total, 2u * 990u);

  // An added table (a copy of an island dimension under a new name).
  Table extra = tables[0];
  extra.set_name("lake_extra");
  tables.push_back(std::move(extra));
  StatusOr<AutoBiResult> added =
      predictor.PredictIncremental(tables, nullptr, &state);
  cold = predictor.Predict(tables, nullptr);
  ASSERT_TRUE(added.ok() && cold.ok());
  ExpectBitIdentical(*added, *cold, tables);
  EXPECT_TRUE(added->incremental.used);
  EXPECT_EQ(added->incremental.pairs_rescored, 60u);
  EXPECT_EQ(added->incremental.pairs_reused, 60u * 59u / 2u);
}

INSTANTIATE_TEST_SUITE_P(Threads, IncrementalLakeTest,
                         ::testing::Values(1, 2, 8));

TEST(IncrementalTest, NoOpWarmStartsTheSolve) {
  AutoBiOptions options;
  options.threads = 2;
  AutoBi predictor(&TestModel(), options);
  IncrementalState state;
  std::vector<Table> tables = BaseTables();
  ASSERT_TRUE(predictor.PredictIncremental(tables, nullptr, &state).ok());
  StatusOr<AutoBiResult> noop =
      predictor.PredictIncremental(tables, nullptr, &state);
  ASSERT_TRUE(noop.ok());
  EXPECT_TRUE(noop->incremental.used);
  EXPECT_TRUE(noop->incremental.warm_start_used);
  EXPECT_EQ(noop->incremental.pairs_reused, 6u);
}

TEST(IncrementalTest, OptionsChangeForcesColdRebuild) {
  std::vector<Table> tables = BaseTables();
  IncrementalState state;
  AutoBiOptions options;
  options.threads = 1;
  AutoBi predictor(&TestModel(), options);
  ASSERT_TRUE(predictor.PredictIncremental(tables, nullptr, &state).ok());
  ASSERT_TRUE(state.valid);

  // Thread count is execution-only (results are bit-identical at any
  // thread count), so it is excluded from the options fingerprint and the
  // delta path still engages.
  AutoBiOptions rethreaded = options;
  rethreaded.threads = 4;
  AutoBi rethreaded_predictor(&TestModel(), rethreaded);
  StatusOr<AutoBiResult> same =
      rethreaded_predictor.PredictIncremental(tables, nullptr, &state);
  ASSERT_TRUE(same.ok());
  EXPECT_TRUE(same->incremental.used);

  // A solve-shaping option, by contrast, must force a cold rebuild
  // (used == false), not silently reuse results computed under the old
  // options.
  AutoBiOptions changed = options;
  changed.tau = 0.75;
  AutoBi changed_predictor(&TestModel(), changed);
  StatusOr<AutoBiResult> rebuilt =
      changed_predictor.PredictIncremental(tables, nullptr, &state);
  ASSERT_TRUE(rebuilt.ok());
  EXPECT_FALSE(rebuilt->incremental.used);
}

TEST(IncrementalTest, DegradedRunsMatchColdButNeverCommitState) {
  std::vector<Table> tables = BaseTables();
  AutoBiOptions options;
  options.threads = 1;
  AutoBi predictor(&TestModel(), options);
  IncrementalState state;
  ASSERT_TRUE(predictor.PredictIncremental(tables, nullptr, &state).ok());
  ASSERT_TRUE(state.valid);

  // A candidate-pair budget trips mid-engine (it is not part of the
  // fallback screen): the degraded result still matches cold under the
  // same budgets, and the state keeps describing the last healthy run.
  RunContext budgeted;
  budgeted.budgets.max_candidate_pairs = 1;
  StatusOr<AutoBiResult> degraded =
      predictor.PredictIncremental(tables, &budgeted, &state);
  ASSERT_TRUE(degraded.ok());
  ASSERT_TRUE(degraded->degradation.Any());
  StatusOr<AutoBiResult> cold_degraded = predictor.Predict(tables, &budgeted);
  ASSERT_TRUE(cold_degraded.ok());
  ExpectBitIdentical(*degraded, *cold_degraded, tables);
  EXPECT_TRUE(state.valid);

  // The surviving baseline still powers a healthy delta run.
  StatusOr<AutoBiResult> healthy =
      predictor.PredictIncremental(tables, nullptr, &state);
  ASSERT_TRUE(healthy.ok());
  EXPECT_TRUE(healthy->incremental.used);
  EXPECT_TRUE(healthy->incremental.warm_start_used);
}

TEST(IncrementalTest, FallbackConditionsInvalidateStateAndUsePlainPredict) {
  std::vector<Table> tables = BaseTables();
  AutoBiOptions options;
  options.threads = 1;
  AutoBi predictor(&TestModel(), options);
  IncrementalState state;
  ASSERT_TRUE(predictor.PredictIncremental(tables, nullptr, &state).ok());
  ASSERT_TRUE(state.valid);

  // A context that is already stopped at entry cannot run the delta path.
  RunContext cancelled;
  cancelled.Cancel();
  StatusOr<AutoBiResult> stopped =
      predictor.PredictIncremental(tables, &cancelled, &state);
  ASSERT_TRUE(stopped.ok());
  EXPECT_FALSE(stopped->incremental.used);
  EXPECT_TRUE(stopped->degradation.Any());
  EXPECT_FALSE(state.valid);

  // Rebuild, then trip the value-probe table budget: same fallback.
  ASSERT_TRUE(predictor.PredictIncremental(tables, nullptr, &state).ok());
  ASSERT_TRUE(state.valid);
  RunContext tiny_rows;
  tiny_rows.budgets.max_rows_per_table = 5;
  StatusOr<AutoBiResult> budgeted =
      predictor.PredictIncremental(tables, &tiny_rows, &state);
  ASSERT_TRUE(budgeted.ok());
  EXPECT_FALSE(budgeted->incremental.used);
  EXPECT_FALSE(state.valid);
  StatusOr<AutoBiResult> cold = predictor.Predict(tables, &tiny_rows);
  ASSERT_TRUE(cold.ok());
  ExpectBitIdentical(*budgeted, *cold, tables);
}

TEST(IncrementalTest, MalformedTablesAreInvalidInput) {
  std::vector<Table> tables = BaseTables();
  AutoBi predictor(&TestModel(), AutoBiOptions{});
  IncrementalState state;
  // One snapshot short of the tables.
  std::vector<TableSnapshot> snapshots = SnapshotTables(tables, 1);
  snapshots.pop_back();
  StatusOr<AutoBiResult> result =
      predictor.PredictIncremental(tables, nullptr, &state, &snapshots);
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput);
  EXPECT_EQ(predictor.Predict(tables, nullptr, &snapshots).status().code(),
            StatusCode::kInvalidInput);

  tables[0].column(0).AppendInt(7);  // Ragged.
  result = predictor.PredictIncremental(tables, nullptr, &state);
  EXPECT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidInput);
}

}  // namespace
}  // namespace autobi

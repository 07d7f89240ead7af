// PR 9 differential suite for the lake-scale path: the blocking stage is a
// pure pruning optimization, so a blocking-on Predict must be bit-identical
// to the exhaustive all-pairs oracle (blocking off) on every workload — the
// synthetic REAL corpus, the DDL-driven TPC-H schema, and adversarial lakes
// (shared dimension names, shared key ranges) — and the partitioned
// per-component solve must stitch the same result at 1, 2 and 8 threads.
// The plan's admitted-pair counts must also stay within the lake-scale
// pruning bounds as lakes grow.

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/auto_bi.h"
#include "core/model_export.h"
#include "core/trainer.h"
#include "profile/blocking.h"
#include "profile/column_profile.h"
#include "synth/corpus.h"
#include "synth/lake.h"
#include "synth/tpch_ddl.h"

namespace autobi {
namespace {

// One shared model for the whole suite (training dominates runtime).
const LocalModel& SharedModel() {
  static const LocalModel* model = [] {
    CorpusOptions opt;
    opt.seed = 808;
    opt.training_cases = 50;
    TrainerOptions trainer;
    trainer.forest.num_trees = 16;
    return new LocalModel(TrainLocalModel(BuildTrainingCorpus(opt), trainer));
  }();
  return *model;
}

AutoBiResult RunPredict(const std::vector<Table>& tables, bool blocking,
                        int threads) {
  AutoBiOptions opt;
  opt.threads = threads;
  opt.candidates.ind.blocking.enabled = blocking;
  AutoBi autobi(&SharedModel(), opt);
  return autobi.Predict(tables);
}

std::string ExportOrDie(const std::vector<Table>& tables,
                        const AutoBiResult& result) {
  StatusOr<std::string> json = ExportJson(tables, result.model);
  EXPECT_TRUE(json.ok()) << json.status().ToString();
  return json.ok() ? json.value() : std::string();
}

// The full bit-identity contract: model export, join graph, and the solver's
// selected edge sets must all match the exhaustive oracle exactly.
void ExpectMatchesExhaustive(const std::vector<Table>& tables, int threads,
                             const char* what) {
  AutoBiResult on = RunPredict(tables, true, threads);
  AutoBiResult off = RunPredict(tables, false, threads);
  EXPECT_EQ(ExportOrDie(tables, on), ExportOrDie(tables, off))
      << what << ": blocking changed the exported model (recall loss)";
  EXPECT_TRUE(on.graph.StructurallyEqual(off.graph))
      << what << ": blocking changed the join graph";
  EXPECT_EQ(on.backbone_edges, off.backbone_edges) << what;
  EXPECT_EQ(on.recall_edges, off.recall_edges) << what;
  // Blocking must actually do work (prune something) wherever more than one
  // table pair exists; the counters prove the fast path ran.
  if (tables.size() > 2) {
    EXPECT_GT(on.ind_stats.blocking.column_pairs_total, 0);
  }
  EXPECT_EQ(off.ind_stats.blocking.column_pairs_pruned, 0);
}

TEST(BlockingDifferentialTest, CorpusBitIdenticalToExhaustive) {
  CorpusOptions opt;
  opt.seed = 911;
  opt.training_cases = 12;
  std::vector<BiCase> corpus = BuildTrainingCorpus(opt);
  ASSERT_FALSE(corpus.empty());
  for (size_t i = 0; i < corpus.size(); ++i) {
    ExpectMatchesExhaustive(corpus[i].tables, 1,
                            corpus[i].name.empty() ? "corpus case"
                                                   : corpus[i].name.c_str());
  }
}

TEST(BlockingDifferentialTest, TpchDdlBitIdenticalToExhaustive) {
  Rng rng(424242);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(0.05, rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  for (int threads : {1, 2, 8}) {
    ExpectMatchesExhaustive(tpch->tables, threads, "TPC-H(ddl)");
  }
}

TEST(BlockingDifferentialTest, LakeBitIdenticalToExhaustiveAcrossThreads) {
  LakeGenOptions gen;
  gen.num_tables = 80;
  gen.shared_dim_name_prob = 0.6;   // Force name collisions across islands.
  gen.shared_key_range_prob = 0.2;  // And value-overlapping near-joins.
  Rng rng(0x9a5e);
  BiCase lake = GenerateLake(gen, rng);
  for (int threads : {1, 2, 8}) {
    ExpectMatchesExhaustive(lake.tables, threads, "lake");
  }
}

// The partitioned solve must kick in on a lake (many islands -> many
// components) and stitch bit-identically at any thread count: the thread-1
// run is the reference, 2 and 8 must reproduce it byte for byte, including
// the partition telemetry.
TEST(BlockingDifferentialTest, ComponentStitchDeterministicAcrossThreads) {
  LakeGenOptions gen;
  gen.num_tables = 60;
  Rng rng(0x57a7);
  BiCase lake = GenerateLake(gen, rng);

  AutoBiResult reference = RunPredict(lake.tables, true, 1);
  ASSERT_GT(reference.partition.components_solved, 1u);
  EXPECT_EQ(reference.partition.component_health.size(),
            reference.partition.components_solved);
  std::string reference_json = ExportOrDie(lake.tables, reference);

  for (int threads : {2, 8}) {
    AutoBiResult run = RunPredict(lake.tables, true, threads);
    EXPECT_EQ(ExportOrDie(lake.tables, run), reference_json) << threads;
    EXPECT_TRUE(run.graph.StructurallyEqual(reference.graph)) << threads;
    EXPECT_EQ(run.backbone_edges, reference.backbone_edges) << threads;
    EXPECT_EQ(run.recall_edges, reference.recall_edges) << threads;
    EXPECT_EQ(run.partition.components, reference.partition.components);
    EXPECT_EQ(run.partition.components_solved,
              reference.partition.components_solved);
    EXPECT_EQ(run.partition.largest_component_edges,
              reference.partition.largest_component_edges);
  }
}

// An edgeless singleton island (1-table remainder) must flow through the
// partition path without a solve call and without disturbing the others.
TEST(BlockingDifferentialTest, SingletonComponentsAreSkippedNotSolved) {
  LakeGenOptions gen;
  gen.num_tables = 31;  // 31 = islands of 3..8 plus a likely remainder.
  Rng rng(0xbeef);
  BiCase lake = GenerateLake(gen, rng);
  AutoBiResult result = RunPredict(lake.tables, true, 2);
  EXPECT_LE(result.partition.components_solved, result.partition.components);
  ExpectMatchesExhaustive(lake.tables, 2, "singleton lake");
}

// Least-squares slope of log(pairs[i]) against log(tables[i]).
double GrowthExponent(const std::vector<int>& tables,
                      const std::vector<size_t>& pairs) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (size_t i = 0; i < tables.size(); ++i) {
    double x = std::log(double(tables[i]));
    double y = std::log(double(pairs[i]));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
  }
  double n = double(tables.size());
  return (n * sxy - sx * sy) / (n * sxx - sx * sx);
}

// On lakes of 50 to 400 tables, generated from one seed so the sizes share
// their leading islands, the plan prunes at least 90% of the ordered column
// pairs at the largest size, and the admitted pairs grow with table count at
// an exponent below 1.5. The counters are deterministic, so these are
// properties of the code, not timings.
TEST(BlockingDifferentialTest, PlanPruningBoundsHoldAsLakesGrow) {
  const std::vector<int> sizes = {50, 100, 200, 400};
  std::vector<size_t> admitted;
  std::vector<size_t> total;
  BlockingStats largest;
  for (int tables : sizes) {
    LakeGenOptions gen;
    gen.num_tables = tables;
    Rng rng(0x1a6e);
    BiCase lake = GenerateLake(gen, rng);
    BlockingStats stats;
    BuildBlockingPlan(ProfileTables(lake.tables), BlockingOptions{}, &stats);
    ASSERT_GT(stats.column_pairs_admitted, 0u) << tables;
    admitted.push_back(stats.column_pairs_admitted);
    total.push_back(stats.column_pairs_total);
    largest = stats;
  }
  EXPECT_GE(largest.PruningRate(), 0.90);
  EXPECT_LT(GrowthExponent(sizes, admitted), 1.5);
  // A plan that admitted every column pair would prune nothing, and the
  // all-pairs count grows at ~2.0, past the exponent bound.
  EXPECT_GE(GrowthExponent(sizes, total), 1.5);
}

// A plan scoped by `rescan` (what a delta predict builds) holds exactly the
// global plan's entries on the in-scope ordered pairs (an absent entry means
// nothing was admitted) and none elsewhere, and its counters are the sums
// over the in-scope pairs — the per-pair counters a partial rescan reports.
void ExpectScopedPlanMatchesGlobal(
    const std::vector<TableProfile>& profiles,
    const std::map<std::pair<int, int>, PairBlocking>& global,
    const std::vector<char>& rescan, const std::string& what) {
  BlockingStats got;
  const std::map<std::pair<int, int>, PairBlocking> scoped = BuildBlockingPlan(
      profiles, BlockingOptions{}, &got, /*threads=*/0, nullptr, &rescan);
  BlockingStats want;
  for (int ti = 0; ti < int(profiles.size()); ++ti) {
    for (int tj = 0; tj < int(profiles.size()); ++tj) {
      if (ti == tj) continue;
      auto s = scoped.find({ti, tj});
      if (!rescan[size_t(ti)] && !rescan[size_t(tj)]) {
        EXPECT_TRUE(s == scoped.end()) << what << " " << ti << " -> " << tj;
        continue;
      }
      auto g = global.find({ti, tj});
      const PairBlocking from_global =
          g != global.end() ? g->second : PairBlocking{};
      const PairBlocking from_scoped =
          s != scoped.end() ? s->second : PairBlocking{};
      EXPECT_EQ(from_scoped.admitted, from_global.admitted)
          << what << " " << ti << " -> " << tj;
      EXPECT_TRUE(s == scoped.end() || !s->second.admitted.empty())
          << what << " inactive entry " << ti << " -> " << tj;
      want.column_pairs_total += profiles[size_t(ti)].columns.size() *
                                 profiles[size_t(tj)].columns.size();
      want.column_pairs_admitted += from_global.admitted.size();
      want.table_pairs_total += 1;
      want.table_pairs_active += from_global.admitted.empty() ? 0 : 1;
    }
  }
  want.column_pairs_pruned =
      want.column_pairs_total - want.column_pairs_admitted;
  EXPECT_EQ(got.column_pairs_total, want.column_pairs_total) << what;
  EXPECT_EQ(got.column_pairs_admitted, want.column_pairs_admitted) << what;
  EXPECT_EQ(got.column_pairs_pruned, want.column_pairs_pruned) << what;
  EXPECT_EQ(got.table_pairs_total, want.table_pairs_total) << what;
  EXPECT_EQ(got.table_pairs_active, want.table_pairs_active) << what;
}

// Every single-table rescan and one multi-table rescan take the pair-local
// mode; flagging all tables but one keeps every ordered pair in scope, so
// that rescan takes the global index.
void ExpectScopedPlansMatchGlobal(const std::vector<Table>& tables,
                                  const char* what) {
  const std::vector<TableProfile> profiles = ProfileTables(tables);
  const size_t n = profiles.size();
  ASSERT_GE(n, 4u) << what;
  const std::map<std::pair<int, int>, PairBlocking> global =
      BuildBlockingPlan(profiles, BlockingOptions{});
  ASSERT_FALSE(global.empty()) << what;
  for (size_t t = 0; t < n; ++t) {
    std::vector<char> rescan(n, 0);
    rescan[t] = 1;
    ExpectScopedPlanMatchesGlobal(profiles, global, rescan,
                                  std::string(what) + " rescan {" +
                                      std::to_string(t) + "}");
  }
  std::vector<char> every_third(n, 0);
  for (size_t t = 0; t < n; t += 3) every_third[t] = 1;
  ExpectScopedPlanMatchesGlobal(profiles, global, every_third,
                                std::string(what) + " every third table");
  std::vector<char> all_but_one(n, 1);
  all_but_one[n / 2] = 0;
  ExpectScopedPlanMatchesGlobal(profiles, global, all_but_one,
                                std::string(what) + " all but one table");
}

TEST(BlockingDifferentialTest, ScopedPlanMatchesGlobalPlan) {
  Rng tpch_rng(424242);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(0.05, tpch_rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  ExpectScopedPlansMatchGlobal(tpch->tables, "TPC-H(ddl)");

  LakeGenOptions gen;
  gen.num_tables = 80;
  gen.shared_dim_name_prob = 0.6;
  gen.shared_key_range_prob = 0.2;
  Rng lake_rng(0x9a5e);
  ExpectScopedPlansMatchGlobal(GenerateLake(gen, lake_rng).tables, "lake");
}

}  // namespace
}  // namespace autobi

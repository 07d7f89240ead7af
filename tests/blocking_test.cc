// PR 9 differential suite for the lake-scale path: the blocking stage is a
// pure pruning optimization, so a blocking-on Predict must be bit-identical
// to the exhaustive all-pairs oracle (blocking off) on every workload — the
// synthetic REAL corpus, the DDL-driven TPC-H schema, and adversarial lakes
// (shared dimension names, shared key ranges) — and the partitioned
// per-component solve must stitch the same result at 1, 2 and 8 threads.
// The plan's admitted-pair counts must also stay within the lake-scale
// pruning bounds as lakes grow.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "common/rng.h"
#include "core/auto_bi.h"
#include "core/model_export.h"
#include "core/trainer.h"
#include "profile/blocking.h"
#include "profile/column_profile.h"
#include "profile/sketch.h"
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

// An order-sensitive hash of every admitted (ti, tj, a, b) of a plan, in
// plan order.
uint64_t AdmissionsHash(
    const std::map<std::pair<int, int>, PairBlocking>& plan) {
  uint64_t h = 0;
  for (const auto& [pair, blocking] : plan) {
    for (const auto& [a, b] : blocking.admitted) {
      for (int v : {pair.first, pair.second, a, b}) {
        h = SplitMix64(h ^ uint64_t(uint32_t(v)));
      }
    }
  }
  return h;
}

struct RecordedPlan {
  size_t column_pairs_total;
  size_t column_pairs_admitted;
  size_t table_pairs_total;
  size_t table_pairs_active;
  uint64_t admissions_hash;
};

void ExpectPlanMatchesRecorded(const std::vector<Table>& tables,
                               const RecordedPlan& want, const char* what) {
  const std::vector<TableProfile> profiles = ProfileTables(tables);
  for (int threads : {1, 4}) {
    BlockingStats stats;
    const std::map<std::pair<int, int>, PairBlocking> plan =
        BuildBlockingPlan(profiles, BlockingOptions{}, &stats, threads);
    EXPECT_EQ(stats.column_pairs_total, want.column_pairs_total) << what;
    EXPECT_EQ(stats.column_pairs_admitted, want.column_pairs_admitted)
        << what;
    EXPECT_EQ(stats.column_pairs_pruned,
              want.column_pairs_total - want.column_pairs_admitted)
        << what;
    EXPECT_EQ(stats.table_pairs_total, want.table_pairs_total) << what;
    EXPECT_EQ(stats.table_pairs_active, want.table_pairs_active) << what;
    EXPECT_EQ(AdmissionsHash(plan), want.admissions_hash) << what;
  }
}

// Pins which probes each column draws: the plans of a 250-table lake (the
// size of perfbench's lake sessions) and of TPC-H from DDL at scale 4 must
// keep the counters and admissions recorded when the bottom and heavy
// probes were chosen by two partial sorts. The differential tests compare
// plan modes that share one set of probes, and blocking against the
// exhaustive oracle only through predictions, so neither sees a change of
// probe choice that keeps those predictions.
TEST(BlockingDifferentialTest, ProbeChoiceMatchesRecordedPlans) {
  LakeGenOptions gen;
  gen.num_tables = 250;
  Rng lake_rng(4242);
  ExpectPlanMatchesRecorded(GenerateLake(gen, lake_rng).tables,
                            {909702, 3013, 62250, 1124, 0x5e477501f00eed7bULL},
                            "lake");

  Rng tpch_rng(4242);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(4.0, tpch_rng);
  ASSERT_TRUE(tpch.ok()) << tpch.status().ToString();
  ExpectPlanMatchesRecorded(tpch->tables,
                            {3140, 544, 56, 46, 0xa4ee581e4bc946bbULL},
                            "TPC-H(ddl)");
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

// The cells of a column of `keys.size()` distinct strings, past
// kProbeAllBelow so it probes by sample: the key whose hash is smallest
// under the SplitMix64 remix (a bottom probe) dominates with 30 rows; the
// kHeavyProbes - 1 keys ranked just past the kBottomProbes get 3 rows each,
// so with the dominant key they are the heavy probes; every other key gets
// 1 row. `by_rank` receives the keys in remix order.
std::vector<std::string> SkewedCells(std::vector<std::string> keys,
                                     std::vector<std::string>* by_rank) {
  std::sort(keys.begin(), keys.end(),
            [](const std::string& a, const std::string& b) {
              return SplitMix64(StableHash64(a)) < SplitMix64(StableHash64(b));
            });
  std::vector<std::string> cells;
  for (size_t rank = 0; rank < keys.size(); ++rank) {
    const bool heavy_only =
        rank >= kBottomProbes && rank < kBottomProbes + kHeavyProbes - 1;
    const int rows = rank == 0 ? 30 : heavy_only ? 3 : 1;
    for (int r = 0; r < rows; ++r) cells.push_back(keys[rank]);
  }
  *by_rank = std::move(keys);
  return cells;
}

void AddStrings(Table* table, const std::string& name,
                const std::vector<std::string>& cells) {
  Column& col = table->AddColumn(name, ValueType::kString);
  for (const std::string& cell : cells) col.AppendString(cell);
}

// Hand-built edge cases of the global index. Many exact-mode columns draw
// from one 8-value domain, so each of its values is a probe of many
// dependent columns; fact_a holds two identical columns, whose entries the
// walk must skip; two columns sit one value past kProbeAllBelow with a
// dominant value that is both a bottom and a heavy probe; probe_ref.r
// shares with wide.s three of its 24 bottom probes and three of its 16
// heavy probes (the dominant value counting in both), so the pair is
// admitted only if a heavy hit is credited as a bottom hit; an all-null
// column and a zero-row table have no probes.
std::vector<Table> EdgeCaseTables() {
  std::vector<std::string> domain;
  for (int v = 0; v < 8; ++v) domain.push_back("v" + std::to_string(v));
  auto cycle = [&](size_t rows, size_t period, size_t stride) {
    std::vector<std::string> cells;
    for (size_t i = 0; i < rows; ++i) {
      cells.push_back(domain[(i * stride) % period]);
    }
    return cells;
  };
  std::vector<Table> tables(6);

  tables[0].set_name("fact_a");
  AddStrings(&tables[0], "x", cycle(40, 8, 1));
  AddStrings(&tables[0], "x_copy", cycle(40, 8, 1));
  AddStrings(&tables[0], "y", cycle(40, 3, 1));
  Column& nulls = tables[0].AddColumn("nulls");
  for (int i = 0; i < 40; ++i) nulls.AppendNull();

  tables[1].set_name("fact_b");
  AddStrings(&tables[1], "p", cycle(24, 5, 1));
  AddStrings(&tables[1], "q", cycle(24, 8, 3));
  AddStrings(&tables[1], "r", cycle(24, 2, 1));

  tables[2].set_name("dim");
  AddStrings(&tables[2], "id", domain);
  std::vector<std::string> labels;
  for (int v = 0; v < 8; ++v) labels.push_back("label" + std::to_string(v));
  AddStrings(&tables[2], "label", labels);

  // Both columns of `wide` hold kProbeAllBelow + 1 keys and so the same
  // number of rows; the second one draws the shared domain too.
  std::vector<std::string> s_keys;
  std::vector<std::string> t_keys = domain;
  for (size_t k = 0; k <= kProbeAllBelow; ++k) {
    s_keys.push_back("s" + std::to_string(k));
  }
  for (size_t k = domain.size(); k <= kProbeAllBelow; ++k) {
    t_keys.push_back("t" + std::to_string(k));
  }
  std::vector<std::string> s_rank;
  std::vector<std::string> t_rank;
  tables[3].set_name("wide");
  AddStrings(&tables[3], "s", SkewedCells(s_keys, &s_rank));
  AddStrings(&tables[3], "t", SkewedCells(t_keys, &t_rank));

  // Remix ranks 0 (bottom and heavy), 1 and 2 (bottom only), 24 and 25
  // (heavy only) of wide.s: 3 bottom hits of 24 and 3 heavy hits of 16,
  // both under the 0.25 admission fraction; 6 of 24 if heavy hits counted
  // as bottom hits.
  const size_t heavy_only = kBottomProbes;
  tables[4].set_name("probe_ref");
  AddStrings(&tables[4], "r",
             {s_rank[0], s_rank[1], s_rank[2], s_rank[heavy_only],
              s_rank[heavy_only + 1]});
  AddStrings(&tables[4], "dom", cycle(5, 5, 1));

  tables[5].set_name("empty");
  tables[5].AddColumn("id", ValueType::kInt);
  tables[5].AddColumn("name", ValueType::kString);
  return tables;
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

  const std::vector<Table> edge = EdgeCaseTables();
  for (const Table& t : edge) ASSERT_TRUE(t.Validate()) << t.name();
  ExpectScopedPlansMatchGlobal(edge, "edge cases");
}

}  // namespace
}  // namespace autobi

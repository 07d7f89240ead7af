// Micro-benchmark of the profiling layer (profile/column_profile.h):
//
//   1. ProfileColumn cost: hash-first columnar kernel (table/key_view.h +
//      radix-sorted distinct aggregation) vs the legacy per-cell string-map
//      kernel (ProfileColumnLegacy), on a 100k-row string column.
//   2. Exact unary Containment: legacy string-map implementation (probing
//      prebuilt maps, i.e. only the cost the historical kernel paid per
//      probe) vs the sorted-hash merge, on high-cardinality string columns
//      and on the skewed small-FK-in-big-PK shape where the merge switches
//      to a galloping search.
//   3. Blocking pruning and DiscoverInds end-to-end with blocking on vs
//      off, on REAL-style synthetic cases.
//   4. TPC-H via the SQL-DDL path (synth/tpch_ddl.h): full-table profiling
//      and UCC discovery, hash-first vs legacy kernels, on a recognizable
//      8-table snowflake with a composite key.
//
// The legacy kernels come from oracle/profile_oracle.h; their equivalence
// with the production kernels is tested by tests/kernel_oracle_test.cc and
// tests/sketch_test.cc, so this binary only reports timings.
//
// Usage: bench_micro_profile

#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "oracle/profile_oracle.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "synth/corpus.h"
#include "synth/tpch_ddl.h"
#include "table/key_view.h"
#include "table/table.h"

namespace autobi {
namespace {

Column StringColumn(const char* name, size_t rows, size_t distinct,
                    const char* prefix, uint64_t salt) {
  Column col(name, ValueType::kString);
  for (size_t r = 0; r < rows; ++r) {
    // Deterministic pseudo-random pick so duplicates are spread out.
    uint64_t v = (r * 2654435761ULL + salt) % distinct;
    col.AppendString(StrFormat("%s%llu", prefix,
                               static_cast<unsigned long long>(v)));
  }
  return col;
}

// Accumulator that keeps benchmarked results observable (defeats dead-code
// elimination); checked at the end of main.
double g_sink = 0.0;

// Times `fn` over `iters` calls; returns microseconds per call.
template <typename Fn>
double TimeUs(size_t iters, const Fn& fn) {
  double sink = 0.0;
  Timer t;
  for (size_t i = 0; i < iters; ++i) sink += fn();
  double us = t.Seconds() * 1e6 / static_cast<double>(iters);
  g_sink += sink;
  return us;
}

void Report(const char* name, double value, const char* unit) {
  std::printf("%-42s %12.3f %s\n", name, value, unit);
}

}  // namespace
}  // namespace autobi

int main() {
  using namespace autobi;

  // --- 1. Profiling kernel, old vs new, on a high-cardinality string column.
  constexpr size_t kRows = 100000;
  constexpr size_t kDistinct = 40000;
  Column fk = StringColumn("fk", kRows, kDistinct, "cust_", 17);
  Column pk = StringColumn("pk", kDistinct, kDistinct, "cust_", 0);

  Timer prof_timer;
  ColumnProfile pfk = ProfileColumn(fk);
  double profile_ms = prof_timer.Millis();
  ColumnProfile ppk = ProfileColumn(pk);
  Report("profile_column_100k_rows", profile_ms, "ms");

  Timer legacy_prof_timer;
  g_sink += double(ProfileColumnLegacy(fk).num_distinct);
  double profile_legacy_ms = legacy_prof_timer.Millis();
  Report("profile_column_100k_rows_legacy", profile_legacy_ms, "ms");
  Report("profile_column_speedup", profile_legacy_ms / profile_ms, "x");

  // --- 2. Unary containment kernels. The legacy timings probe *prebuilt*
  // string maps, matching what the historical kernel paid per probe (its
  // maps lived inside the profiles).
  DistinctKeyMap map_fk = BuildDistinctKeyMap(fk);
  DistinctKeyMap map_pk = BuildDistinctKeyMap(pk);
  constexpr size_t kIters = 20;
  double old_us = TimeUs(kIters, [&] {
    return ContainmentViaStringMap(map_fk, pfk.non_null_count, map_pk);
  });
  double new_us = TimeUs(kIters, [&] { return Containment(pfk, ppk); });
  Report("containment_string_map_40k_distinct", old_us, "us");
  Report("containment_hash_merge_40k_distinct", new_us, "us");
  Report("containment_speedup_40k_distinct", old_us / new_us, "x");

  // Skewed shape: small FK distinct set probing a big key column (the merge
  // switches to a galloping search over the big side).
  Column small_fk = StringColumn("sfk", 20000, 500, "cust_", 23);
  ColumnProfile psmall = ProfileColumn(small_fk);
  DistinctKeyMap map_small = BuildDistinctKeyMap(small_fk);
  double old_skew_us = TimeUs(kIters * 10, [&] {
    return ContainmentViaStringMap(map_small, psmall.non_null_count, map_pk);
  });
  double new_skew_us = TimeUs(kIters * 10, [&] {
    return Containment(psmall, ppk);
  });
  Report("containment_string_map_skewed", old_skew_us, "us");
  Report("containment_hash_merge_skewed", new_skew_us, "us");
  Report("containment_speedup_skewed", old_skew_us / new_skew_us, "x");

  // --- 3. Blocking + DiscoverInds end-to-end on REAL-style cases (serial,
  // so the kernel change is what's measured).
  CorpusOptions copt;
  copt.seed = 4242;
  copt.cases_per_bucket = 2;
  RealBenchmark real = BuildRealBenchmark(copt);
  std::vector<std::vector<TableProfile>> profiles(real.cases.size());
  std::vector<std::vector<std::vector<Ucc>>> uccs(real.cases.size());
  for (size_t i = 0; i < real.cases.size(); ++i) {
    profiles[i] = ProfileTables(real.cases[i].tables);
    for (size_t t = 0; t < real.cases[i].tables.size(); ++t) {
      uccs[i].push_back(
          DiscoverUccs(real.cases[i].tables[t], profiles[i][t]));
    }
  }
  // Old vs new candidate-generation kernel end-to-end: evaluate exactly the
  // column pairs the unary IND scan evaluates (same pre-screens), with the
  // legacy string-map kernel (prebuilt maps, as the old profiles carried)
  // vs the hash-merge kernel.
  std::vector<std::vector<std::vector<DistinctKeyMap>>> maps(
      real.cases.size());
  for (size_t i = 0; i < real.cases.size(); ++i) {
    for (const Table& t : real.cases[i].tables) {
      std::vector<DistinctKeyMap>& table_maps = maps[i].emplace_back();
      for (size_t c = 0; c < t.num_columns(); ++c) {
        table_maps.push_back(BuildDistinctKeyMap(t.column(c)));
      }
    }
  }
  IndOptions defaults;
  auto unary_kernel_ms = [&](bool legacy) {
    double sum = 0.0;
    Timer t;
    for (size_t i = 0; i < real.cases.size(); ++i) {
      const auto& tp = profiles[i];
      for (size_t ti = 0; ti < tp.size(); ++ti) {
        for (size_t tj = 0; tj < tp.size(); ++tj) {
          if (ti == tj) continue;
          for (size_t a = 0; a < tp[ti].columns.size(); ++a) {
            const ColumnProfile& pa = tp[ti].columns[a];
            if (pa.num_distinct < kMinDependentDistinct) continue;
            for (size_t b = 0; b < tp[tj].columns.size(); ++b) {
              const ColumnProfile& pb = tp[tj].columns[b];
              if (pb.non_null_count == 0 ||
                  pb.distinct_ratio <
                      defaults.min_referenced_distinct_ratio) {
                continue;
              }
              sum += legacy ? ContainmentViaStringMap(maps[i][ti][a],
                                                      pa.non_null_count,
                                                      maps[i][tj][b])
                            : Containment(pa, pb);
            }
          }
        }
      }
    }
    g_sink += sum;
    return t.Millis();
  };
  double kernel_old_ms = unary_kernel_ms(/*legacy=*/true);
  double kernel_new_ms = unary_kernel_ms(/*legacy=*/false);
  Report("unary_kernel_e2e_string_map", kernel_old_ms, "ms");
  Report("unary_kernel_e2e_hash_merge", kernel_new_ms, "ms");
  Report("unary_kernel_e2e_speedup", kernel_old_ms / kernel_new_ms, "x");

  IndStats on_stats;
  double on_ms = 0.0;
  double off_ms = 0.0;
  size_t inds = 0;
  for (size_t i = 0; i < real.cases.size(); ++i) {
    IndOptions on;
    on.threads = 1;
    IndStats s;
    Timer t;
    inds += DiscoverInds(real.cases[i].tables, profiles[i], uccs[i], on, &s)
                .size();
    on_ms += t.Millis();
    on_stats.Add(s);

    IndOptions off = on;
    off.blocking.enabled = false;
    Timer t2;
    g_sink += double(
        DiscoverInds(real.cases[i].tables, profiles[i], uccs[i], off).size());
    off_ms += t2.Millis();
  }
  Report("real_cases", double(real.cases.size()), "cases");
  Report("discover_inds_total_inds", double(inds), "inds");
  Report("blocking_prune_rate", on_stats.blocking.PruningRate(), "frac");
  Report("blocking_table_pairs_active",
         double(on_stats.blocking.table_pairs_active), "pairs");
  Report("discover_inds_blocking_on", on_ms, "ms");
  Report("discover_inds_blocking_off", off_ms, "ms");
  Report("discover_inds_blocking_speedup", off_ms / on_ms, "x");
  Report("composite_sets_built", double(on_stats.composite_sets_built),
         "sets");
  Report("composite_budget_truncations",
         double(on_stats.composite_budget_truncations), "pairs");

  // --- 4. TPC-H through the SQL-DDL ingestion path: profile + UCC kernels
  // on a real multi-table snowflake (wide lineitem, composite partsupp key).
  Rng tpch_rng(7);
  StatusOr<BiCase> tpch = GenerateTpchFromDdl(/*scale=*/2.0, tpch_rng);
  if (!tpch.ok()) {
    std::fprintf(stderr, "FATAL: TPC-H DDL generation failed: %s\n",
                 tpch.status().message().c_str());
    return 1;
  }
  size_t tpch_rows = 0;
  for (const Table& t : tpch->tables) tpch_rows += t.num_rows();
  Report("tpch_ddl_tables", double(tpch->tables.size()), "tables");
  Report("tpch_ddl_rows", double(tpch_rows), "rows");

  Timer tpch_prof_timer;
  std::vector<TableProfile> tpch_profiles =
      ProfileTables(tpch->tables, /*max_sample=*/512, /*threads=*/1);
  double tpch_prof_ms = tpch_prof_timer.Millis();
  Timer tpch_prof_legacy_timer;
  for (const Table& t : tpch->tables) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      g_sink += double(ProfileColumnLegacy(t.column(c)).num_distinct);
    }
  }
  double tpch_prof_legacy_ms = tpch_prof_legacy_timer.Millis();
  Report("tpch_profile_ms", tpch_prof_ms, "ms");
  Report("tpch_profile_legacy_ms", tpch_prof_legacy_ms, "ms");
  Report("tpch_profile_speedup", tpch_prof_legacy_ms / tpch_prof_ms, "x");

  size_t tpch_uccs_new = 0;
  Timer tpch_ucc_timer;
  for (size_t t = 0; t < tpch->tables.size(); ++t) {
    TableKeyView view(tpch->tables[t]);
    tpch_uccs_new +=
        DiscoverUccs(tpch->tables[t], tpch_profiles[t], {}, &view).size();
  }
  double tpch_ucc_ms = tpch_ucc_timer.Millis();
  Timer tpch_ucc_legacy_timer;
  for (size_t t = 0; t < tpch->tables.size(); ++t) {
    g_sink += double(
        DiscoverUccsLegacy(tpch->tables[t], tpch_profiles[t]).size());
  }
  double tpch_ucc_legacy_ms = tpch_ucc_legacy_timer.Millis();
  Report("tpch_uccs", double(tpch_uccs_new), "uccs");
  Report("tpch_ucc_ms", tpch_ucc_ms, "ms");
  Report("tpch_ucc_legacy_ms", tpch_ucc_legacy_ms, "ms");
  Report("tpch_ucc_speedup", tpch_ucc_legacy_ms / tpch_ucc_ms, "x");

  // Keep the accumulated kernel outputs observable so nothing above was
  // optimized away (NaN would indicate a broken kernel, too).
  if (!(g_sink == g_sink)) {
    std::fprintf(stderr, "FATAL: kernel produced NaN\n");
    return 1;
  }
  return 0;
}

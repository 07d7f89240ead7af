// Cold vs incremental re-prediction latency: on a 20-table synthetic BI
// case, replays one mutation of each kind (no-op, single-table row append,
// add table, drop table, rename column, replace cells) and times
// AutoBi::PredictIncremental with a pre-seeded IncrementalState against a
// cold Predict on the same post-change tables. Their bit-identity is tested
// by IncrementalDifferentialTest (tests/incremental_test.cc).
//
// Usage: bench_incremental [--tables N] [--reps N] [--threads N]

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/auto_bi.h"
#include "core/incremental.h"
#include "synth/bi_generator.h"

namespace autobi {
namespace {

std::vector<Table> MakeBaseTables(int num_tables) {
  Rng rng(20260808);
  BiGenOptions gen;
  gen.num_tables = num_tables;
  // Comparable dim/fact row counts: the speedup then reflects the share of
  // *pairs* rescanned (19 of 190 for a single-table change), not one
  // outsized fact table dominating the scan cost from both sides.
  gen.min_dim_rows = 100;
  gen.max_dim_rows = 400;
  gen.min_fact_rows = 250;
  gen.max_fact_rows = 600;
  return GenerateBiCase(gen, rng).tables;
}

size_t LargestTable(const std::vector<Table>& tables) {
  size_t best = 0;
  for (size_t i = 1; i < tables.size(); ++i) {
    if (tables[i].num_rows() > tables[best].num_rows()) best = i;
  }
  return best;
}

void AppendTypedCell(Column& col, Rng& rng) {
  switch (col.type()) {
    case ValueType::kInt:
      col.AppendInt(int64_t(rng.NextBelow(10000)));
      break;
    case ValueType::kDouble:
      col.AppendDouble(rng.NextDouble(0.0, 1000.0));
      break;
    case ValueType::kString:
      col.AppendString(StrFormat("bench_%llu",
                                 (unsigned long long)rng.NextBelow(10000)));
      break;
    default:
      col.AppendNull();
      break;
  }
}

struct MutationKind {
  const char* name;
  void (*apply)(std::vector<Table>*);
};

void MutateNoop(std::vector<Table>*) {}

// Appends ~2% fresh rows to the largest table (the dashboard-refresh case
// the delta path is built for: one fact table grew, everything else is
// byte-identical).
void MutateAppendRows(std::vector<Table>* tables) {
  Table& t = (*tables)[LargestTable(*tables)];
  Rng rng(99);
  size_t rows = std::max<size_t>(8, t.num_rows() / 50);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < t.num_columns(); ++c) {
      AppendTypedCell(t.column(c), rng);
    }
  }
}

void MutateAddTable(std::vector<Table>* tables) {
  Table t("bench_added");
  Column& id = t.AddColumn("bench_id", ValueType::kInt);
  Column& label = t.AddColumn("bench_label", ValueType::kString);
  for (int r = 0; r < 40; ++r) {
    id.AppendInt(r);
    label.AppendString(StrFormat("v%d", r));
  }
  tables->push_back(std::move(t));
}

void MutateDropTable(std::vector<Table>* tables) {
  tables->erase(tables->begin() + long(tables->size() / 2));
}

void MutateRenameColumn(std::vector<Table>* tables) {
  Column& c = (*tables)[LargestTable(*tables)].column(0);
  c.set_name(c.name() + "_renamed");
}

void MutateReplaceCells(std::vector<Table>* tables) {
  Table& t = (*tables)[LargestTable(*tables)];
  Column& old = t.column(t.num_columns() - 1);
  Rng rng(7);
  Column fresh(old.name(), old.type());
  for (size_t i = 0; i < old.size(); ++i) AppendTypedCell(fresh, rng);
  old = std::move(fresh);
}

const MutationKind kKinds[] = {
    {"noop", MutateNoop},
    {"append_rows", MutateAppendRows},
    {"add_table", MutateAddTable},
    {"drop_table", MutateDropTable},
    {"rename_column", MutateRenameColumn},
    {"replace_cells", MutateReplaceCells},
};

struct KindResult {
  std::string name;
  double cold_ms = 0.0;
  double incremental_ms = 0.0;
  double speedup = 0.0;
  IncrementalStats stats;
};

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "bench_incremental: FATAL — %s\n", message.c_str());
  std::exit(1);
}

AutoBiResult MustPredictIncremental(const AutoBi& predictor,
                                    const std::vector<Table>& tables,
                                    IncrementalState* state) {
  StatusOr<AutoBiResult> result =
      predictor.PredictIncremental(tables, nullptr, state);
  if (!result.ok()) {
    Fatal("PredictIncremental failed: " + result.status().ToString());
  }
  return std::move(result.value());
}

KindResult RunKind(const MutationKind& kind, const AutoBi& predictor,
                   const std::vector<Table>& base, int reps) {
  KindResult out;
  out.name = kind.name;

  std::vector<Table> mutated = base;
  kind.apply(&mutated);

  // Incremental timing: every rep re-seeds a fresh state from the base
  // tables (untimed) so each measurement is a genuine first delta run, not
  // a no-op warm start over already-committed state.
  AutoBiResult incr;
  double incr_best = 1e100;
  for (int r = 0; r < reps; ++r) {
    IncrementalState state;
    MustPredictIncremental(predictor, base, &state);
    Timer timer;
    incr = MustPredictIncremental(predictor, mutated, &state);
    incr_best = std::min(incr_best, timer.Seconds());
    if (!incr.incremental.used) Fatal(out.name + ": delta path not taken");
  }
  out.incremental_ms = incr_best * 1e3;
  out.stats = incr.incremental;

  double cold_best = 1e100;
  for (int r = 0; r < reps; ++r) {
    Timer timer;
    StatusOr<AutoBiResult> result = predictor.Predict(mutated, nullptr);
    if (!result.ok()) Fatal("Predict failed: " + result.status().ToString());
    cold_best = std::min(cold_best, timer.Seconds());
  }
  out.cold_ms = cold_best * 1e3;
  out.speedup = out.incremental_ms > 0 ? out.cold_ms / out.incremental_ms : 0;
  return out;
}

}  // namespace
}  // namespace autobi

int main(int argc, char** argv) {
  using namespace autobi;
  int num_tables = 20;
  int reps = 2;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--tables") == 0 && i + 1 < argc) {
      num_tables = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--reps") == 0 && i + 1 < argc) {
      reps = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_incremental [--tables N] [--reps N] "
                   "[--threads N]\n");
      return 2;
    }
  }

  LocalModel model = bench::GetTrainedModel();
  AutoBiOptions options;
  options.threads = threads;
  AutoBi predictor(&model, options);
  std::vector<Table> base = MakeBaseTables(num_tables);

  std::vector<KindResult> results;
  for (const MutationKind& kind : kKinds) {
    results.push_back(RunKind(kind, predictor, base, reps));
  }

  std::printf("Incremental re-prediction, %d tables (best of %d):\n",
              num_tables, reps);
  std::printf("  %-14s %10s %14s %9s %s\n", "mutation", "cold", "incremental",
              "speedup", "work (reprof/merge/rescore/reuse/warm)");
  for (const KindResult& r : results) {
    std::printf("  %-14s %8.1fms %12.1fms %8.1fx %zu/%zu/%zu/%zu/%s\n",
                r.name.c_str(), r.cold_ms, r.incremental_ms, r.speedup,
                r.stats.tables_reprofiled, r.stats.tables_delta_merged,
                r.stats.pairs_rescored, r.stats.pairs_reused,
                r.stats.warm_start_used ? "warm" : "cold-solve");
  }
  return 0;
}

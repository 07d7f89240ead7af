// Lake-scale Predict scaling: sweeps synthetic data lakes of disconnected
// star/snowflake islands (synth/lake.h) over increasing table counts and
// measures how blocking + the partitioned solve bend the end-to-end curve
// against the exhaustive all-pairs oracle (blocking.enabled = false), and
// fits the growth exponent of blocking-admitted column pairs against table
// count (all-pairs scanning is exactly 2.0 at fixed island size).
// tests/blocking_test.cc holds the blocked run bit-identical to the oracle
// and the admitted-pair counts to their pruning and growth bounds.
//
// Usage: bench_lake [--max_tables N] [--threads N]
//   --max_tables  largest sweep point (default 500, capped at 1000).

#include <algorithm>
#include <cmath>
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
#include "synth/lake.h"

namespace autobi {
namespace {

[[noreturn]] void Fatal(const std::string& message) {
  std::fprintf(stderr, "bench_lake: FATAL — %s\n", message.c_str());
  std::exit(1);
}

struct SizeResult {
  int tables = 0;
  double predict_on_ms = 0.0;   // Blocking + partitioned solve (default).
  double predict_off_ms = 0.0;  // Exhaustive all-pairs oracle.
  double speedup = 0.0;
  // Blocking counters of the blocked run.
  double pruning_rate = 0.0;
  size_t column_pairs_admitted = 0;
  size_t table_pairs_total = 0;
  size_t table_pairs_active = 0;
  // Partitioned-solve telemetry.
  size_t components = 0;
  size_t joins = 0;
};

AutoBiResult MustPredict(const AutoBi& predictor,
                         const std::vector<Table>& tables) {
  StatusOr<AutoBiResult> result = predictor.Predict(tables, nullptr);
  if (!result.ok()) Fatal("Predict failed: " + result.status().ToString());
  return std::move(result.value());
}

SizeResult RunSize(const LocalModel& model, int num_tables, int threads) {
  Rng rng(0x1a6e0000u + uint64_t(num_tables));
  LakeGenOptions gen;
  gen.num_tables = num_tables;
  BiCase lake = GenerateLake(gen, rng);
  if (int(lake.tables.size()) != num_tables) {
    Fatal(StrFormat("lake generator produced %zu tables, wanted %d",
                    lake.tables.size(), num_tables));
  }

  AutoBiOptions on;
  on.threads = threads;
  AutoBiOptions off = on;
  off.candidates.ind.blocking.enabled = false;

  SizeResult out;
  out.tables = num_tables;

  AutoBi predictor_on(&model, on);
  Timer on_timer;
  AutoBiResult r_on = MustPredict(predictor_on, lake.tables);
  out.predict_on_ms = on_timer.Seconds() * 1e3;

  AutoBi predictor_off(&model, off);
  Timer off_timer;
  AutoBiResult r_off = MustPredict(predictor_off, lake.tables);
  out.predict_off_ms = off_timer.Seconds() * 1e3;
  out.speedup =
      out.predict_on_ms > 0 ? out.predict_off_ms / out.predict_on_ms : 0;

  const BlockingStats& b = r_on.ind_stats.blocking;
  out.pruning_rate = b.PruningRate();
  out.column_pairs_admitted = b.column_pairs_admitted;
  out.table_pairs_total = b.table_pairs_total;
  out.table_pairs_active = b.table_pairs_active;
  out.components = r_on.partition.components;
  out.joins = r_on.model.joins.size();
  return out;
}

// Least-squares slope of log(y) against log(x): the growth exponent of the
// admitted-pair curve over the sweep.
double FitExponent(const std::vector<SizeResult>& results) {
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  size_t n = 0;
  for (const SizeResult& r : results) {
    if (r.column_pairs_admitted == 0) continue;
    double x = std::log(double(r.tables));
    double y = std::log(double(r.column_pairs_admitted));
    sx += x;
    sy += y;
    sxx += x * x;
    sxy += x * y;
    ++n;
  }
  if (n < 2) return 0.0;
  double denom = double(n) * sxx - sx * sx;
  return denom != 0 ? (double(n) * sxy - sx * sy) / denom : 0.0;
}

}  // namespace
}  // namespace autobi

int main(int argc, char** argv) {
  using namespace autobi;
  int max_tables = 500;
  int threads = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--max_tables") == 0 && i + 1 < argc) {
      max_tables = std::atoi(argv[++i]);
    } else if (std::strcmp(argv[i], "--threads") == 0 && i + 1 < argc) {
      threads = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr,
                   "usage: bench_lake [--max_tables N] [--threads N]\n");
      return 2;
    }
  }
  max_tables = std::min(std::max(max_tables, 50), 1000);

  LocalModel model = bench::GetTrainedModel();
  std::vector<int> sizes;
  for (int s : {50, 100, 200, 350, 500, 700, 1000}) {
    if (s <= max_tables) sizes.push_back(s);
  }
  if (sizes.back() != max_tables) sizes.push_back(max_tables);

  std::vector<SizeResult> results;
  for (int s : sizes) {
    results.push_back(RunSize(model, s, threads));
    const SizeResult& r = results.back();
    std::printf(
        "%5d tables: on %8.1f ms  off %8.1f ms  (%5.2fx)  pruning %.4f  "
        "active pairs %zu/%zu  components %zu  joins %zu\n",
        r.tables, r.predict_on_ms, r.predict_off_ms, r.speedup,
        r.pruning_rate, r.table_pairs_active, r.table_pairs_total,
        r.components, r.joins);
  }
  std::printf("admitted-pairs growth exponent: %.3f\n", FitExponent(results));
  return 0;
}

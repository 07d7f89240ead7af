// Reproduces Figure 6: the latency distribution of the k-MCA-CC solve
// (Algorithm 3) alone, across the REAL benchmark — plus a before/after
// solver comparison on adversarial conflict-dense instances (the frozen
// serial DFS of oracle/solver_oracle.h vs the wave-parallel workspace solver
// at 1 and 8 threads). Their equal results are tested by
// tests/solver_determinism_test.cc and the differential fuzzer.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/stats_util.h"
#include "eval/report.h"
#include "graph/kmca_cc.h"
#include "oracle/solver_oracle.h"

namespace autobi {
namespace {

// Adversarial conflict-dense schema: `hubs` fact-like tables, each with one
// FK-once group fanning out to `fan` dimensions (every group member beats
// the virtual-edge penalty, so the whole group survives the relaxation and
// must be branched on), a costlier parallel alternative per dimension, and a
// `chain`-deep snowflake tail under every dimension. The tails keep each
// relaxation realistically sized, so the per-node rebuild cost the PR 4
// solver eliminates actually shows up in wall-clock.
JoinGraph AdversarialConflictGraph(int hubs, int fan, int chain, Rng& rng) {
  int n = hubs + hubs * fan * (1 + chain);
  JoinGraph g(n);
  int next = hubs + hubs * fan;
  for (int h = 0; h < hubs; ++h) {
    for (int f = 0; f < fan; ++f) {
      int dst = hubs + h * fan + f;
      g.AddEdge(h, dst, {0}, {0}, rng.NextDouble(0.55, 0.95));
      g.AddEdge(h, dst, {0}, {1}, rng.NextDouble(0.51, 0.54));
      int prev = dst;
      for (int c = 0; c < chain; ++c) {
        int v = next++;
        g.AddEdge(prev, v, {c + 2}, {0}, rng.NextDouble(0.6, 0.95));
        prev = v;
      }
    }
  }
  return g;
}

double MinSolveSeconds(const JoinGraph& g, bool legacy, int threads,
                       int reps, KmcaCcStats* stats, KmcaResult* result) {
  KmcaCcOptions opt;
  opt.threads = threads;
  double best = 1e300;
  for (int rep = 0; rep < reps; ++rep) {
    auto t0 = std::chrono::steady_clock::now();
    *result = legacy ? SolveKmcaCcLegacy(g, opt, stats)
                     : SolveKmcaCc(g, opt, stats);
    auto t1 = std::chrono::steady_clock::now();
    best = std::min(best, std::chrono::duration<double>(t1 - t0).count());
  }
  return best;
}

struct SolverRow {
  const char* name;
  int vertices;
  double legacy_s, new1_s, new8_s;
  long legacy_calls, new_calls, memo_hits;
};

std::vector<SolverRow> RunSolverComparison() {
  struct Shape {
    const char* name;
    int hubs, fan, chain;
  };
  const Shape shapes[] = {
      {"dense-small", 3, 6, 0},
      {"dense-snowflake", 3, 6, 10},
      {"wide-snowflake", 4, 5, 20},
  };
  std::vector<SolverRow> rows;
  for (const Shape& s : shapes) {
    Rng rng(21);
    JoinGraph g = AdversarialConflictGraph(s.hubs, s.fan, s.chain, rng);
    SolverRow row{};
    row.name = s.name;
    row.vertices = g.num_vertices();

    KmcaCcStats legacy_stats, new_stats;
    KmcaResult result;
    row.legacy_s =
        MinSolveSeconds(g, /*legacy=*/true, 1, 5, &legacy_stats, &result);
    row.new1_s =
        MinSolveSeconds(g, /*legacy=*/false, 1, 5, &new_stats, &result);
    row.new8_s = MinSolveSeconds(g, /*legacy=*/false, 8, 5, nullptr, &result);
    row.legacy_calls = legacy_stats.one_mca_calls;
    row.new_calls = new_stats.one_mca_calls;
    row.memo_hits = new_stats.memo_hits;
    rows.push_back(row);
  }
  return rows;
}

}  // namespace
}  // namespace autobi

int main() {
  using namespace autobi;
  using namespace autobi::bench;

  std::vector<SolverRow> solver_rows = RunSolverComparison();

  LocalModel model = GetTrainedModel();
  RealBenchmark real = GetRealBenchmark();

  AutoBi auto_bi(&model, AutoBiOptions{});
  std::vector<double> latencies;
  std::vector<std::pair<double, size_t>> worst;  // (seconds, #tables).
  for (const BiCase& bi_case : real.cases) {
    AutoBiResult r = auto_bi.Predict(bi_case.tables);
    latencies.push_back(r.kmca_cc_seconds);
    worst.emplace_back(r.kmca_cc_seconds, bi_case.tables.size());
  }
  std::sort(worst.rbegin(), worst.rend());

  std::printf("=== Figure 6: k-MCA-CC solve latency distribution "
              "(%zu REAL cases) ===\n",
              latencies.size());
  TablePrinter t({"Statistic", "Seconds"});
  t.AddRow({"mean", FmtSeconds(Mean(latencies))});
  t.AddRow({"50-th percentile", FmtSeconds(Percentile(latencies, 50))});
  t.AddRow({"90-th percentile", FmtSeconds(Percentile(latencies, 90))});
  t.AddRow({"95-th percentile", FmtSeconds(Percentile(latencies, 95))});
  t.AddRow({"max", FmtSeconds(Percentile(latencies, 100))});
  t.Print();

  std::printf("\nSlowest cases (latency @ #tables): ");
  for (size_t i = 0; i < std::min<size_t>(5, worst.size()); ++i) {
    std::printf("%s@%zu ", FmtSeconds(worst[i].first).c_str(),
                worst[i].second);
  }
  std::printf("\n\nPaper reference: mean 0.11s, median 0.02s; 90/95-th "
              "percentile 0.06/0.17s; max 11s on an 88-table case.\n");

  std::printf("\n=== Solver comparison: adversarial conflict-dense "
              "instances ===\n");
  TablePrinter st({"Instance", "Vertices", "Legacy", "New (1T)", "New (8T)",
                   "Speedup 1T", "1-MCA calls (legacy -> new)", "Memo hits"});
  for (const SolverRow& r : solver_rows) {
    st.AddRow({r.name, StrFormat("%d", r.vertices), FmtSeconds(r.legacy_s),
               FmtSeconds(r.new1_s), FmtSeconds(r.new8_s),
               StrFormat("%.2fx", r.legacy_s / r.new1_s),
               StrFormat("%ld -> %ld", r.legacy_calls, r.new_calls),
               StrFormat("%ld", r.memo_hits)});
  }
  st.Print();
  std::printf("\nThe 8-thread column only separates from 1T on multi-core "
              "hosts (this run: %u hardware threads).\n",
              std::thread::hardware_concurrency());
  return 0;
}

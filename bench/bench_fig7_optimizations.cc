// Reproduces Figure 7: the effect of the two efficiency optimizations,
// measured in number of 1-MCA (Chu-Liu/Edmonds) invocations:
//   (1) brute-force k-MCA (enumerate every vertex partition) vs the
//       artificial-root reduction (Algorithm 2);
//   (2) exhaustive conflict branching vs branch-and-bound (Algorithm 3).
// The unoptimized counts are computed analytically (running them would time
// out, as the paper notes); the optimized counts are measured.

#include <cstdio>

#include "bench/bench_common.h"
#include "common/strings.h"
#include "common/stats_util.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "eval/report.h"
#include "graph/kmca_cc.h"
#include "oracle/brute_force.h"

int main() {
  using namespace autobi;
  using namespace autobi::bench;

  LocalModel model = GetTrainedModel();
  RealBenchmark real = GetRealBenchmark();

  std::vector<double> brute_force_calls;     // No artificial root.
  std::vector<double> unpruned_calls;        // No branch-and-bound.
  std::vector<double> optimized_calls;       // Algorithm 3 (measured).
  for (const BiCase& bi_case : real.cases) {
    CandidateSet cands = GenerateCandidates(bi_case.tables);
    JoinGraph graph = BuildJoinGraph(bi_case.tables, cands, model, false);
    brute_force_calls.push_back(
        EstimateBruteForceKmcaCalls(graph.num_vertices()));
    unpruned_calls.push_back(EstimateUnprunedBranchCalls(graph));
    KmcaCcStats stats;
    SolveKmcaCc(graph, KmcaCcOptions{}, &stats);
    optimized_calls.push_back(double(stats.one_mca_calls));
  }

  std::printf("=== Figure 7: number of 1-MCA invocations, with vs without "
              "the optimizations (%zu REAL cases) ===\n",
              real.cases.size());
  TablePrinter t({"Variant", "Mean #1-MCA calls", "Median", "Max"});
  auto row = [&](const char* label, std::vector<double>& v) {
    t.AddRow({label, StrFormat("%.3g", Mean(v)),
              StrFormat("%.3g", Percentile(v, 50)),
              StrFormat("%.3g", Percentile(v, 100))});
  };
  row("brute-force k-MCA (no artificial root)", brute_force_calls);
  row("k-MCA-CC w/o branch-and-bound (exhaustive)", unpruned_calls);
  row("Auto-BI (Algorithms 2+3, measured)", optimized_calls);
  t.Print();

  // Optimization (1) replaces the per-partition enumeration with a single
  // 1-MCA call per k-MCA solve; optimization (2) prunes the conflict
  // branching down to the measured call count.
  double speedup1 = Mean(brute_force_calls);
  double speedup2 =
      Mean(unpruned_calls) / std::max(1.0, Mean(optimized_calls));
  std::printf("\nArtificial-root reduction:   ~%.1e x fewer 1-MCA calls\n",
              speedup1);
  std::printf("Branch-and-bound pruning:    ~%.1e x fewer 1-MCA calls\n",
              speedup2);
  std::printf("\nPaper reference: ~5 and ~4 orders of magnitude "
              "respectively (~10 orders combined).\n");
  return 0;
}

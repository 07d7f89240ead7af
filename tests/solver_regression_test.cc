#include <gtest/gtest.h>

#include <cstdlib>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "fuzz/generator.h"
#include "graph/edmonds.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "graph/validate.h"
#include "oracle/brute_force.h"

namespace autobi {
namespace {

using Pairs = std::vector<std::pair<int, int>>;

Pairs EdgePairs(const JoinGraph& g, const std::vector<int>& edge_ids) {
  Pairs arcs;
  for (int id : edge_ids) arcs.emplace_back(g.edge(id).src, g.edge(id).dst);
  return arcs;
}

// Dense FK-once conflict graph: one hub vertex with an equal-column edge to
// every other vertex (a single large conflict group) plus a second group, so
// the branch-and-bound has many children at the root.
JoinGraph DenseConflictGraph() {
  JoinGraph g(7);
  for (int v = 1; v <= 5; ++v) {
    g.AddEdge(0, v, {0}, {0}, 0.9);  // source_key shared by all five.
  }
  for (int v = 3; v <= 6; ++v) {
    g.AddEdge(1, v, {1}, {0}, 0.8);  // A second conflict group of four.
  }
  g.AddEdge(6, 0, {0}, {1}, 0.7);
  return g;
}

// Regression for the branch-and-bound budget: with a tiny max_one_mca_calls
// the search cannot reach a feasible leaf, so SolveKmcaCc must fall back to
// the thinned relaxation — setting budget_exhausted while still returning a
// structurally valid, FK-once-feasible (possibly suboptimal) model.
TEST(SolverRegressionTest, BudgetExhaustedStillReturnsValidModel) {
  JoinGraph g = DenseConflictGraph();
  KmcaCcOptions opt;
  opt.max_one_mca_calls = 1;
  KmcaCcStats stats;
  KmcaResult r = SolveKmcaCc(g, opt, &stats);

  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_TRUE(r.feasible);
  int k = 0;
  EXPECT_TRUE(IsKArborescence(g.num_vertices(), EdgePairs(g, r.edge_ids), &k));
  EXPECT_EQ(k, r.k);
  EXPECT_TRUE(SatisfiesFkOnce(g, r.edge_ids));
  EXPECT_NEAR(r.cost, KArborescenceCost(g, r.edge_ids, opt.penalty_weight),
              1e-9);
  // Suboptimal is allowed; beating the exhaustive optimum is not.
  KmcaResult oracle = BruteForceKmcaCc(g, opt.penalty_weight);
  EXPECT_GE(r.cost, oracle.cost - 1e-9);

  // With the default (ample) budget the same instance solves to optimality.
  KmcaCcStats full_stats;
  KmcaResult full = SolveKmcaCc(g, KmcaCcOptions{}, &full_stats);
  EXPECT_FALSE(full_stats.budget_exhausted);
  EXPECT_NEAR(full.cost, oracle.cost, 1e-9);
}

TEST(SolverRegressionTest, BudgetExhaustedMidSearchKeepsIncumbent) {
  JoinGraph g = DenseConflictGraph();
  KmcaCcOptions opt;
  // Enough budget to reach some leaves but not to finish the search.
  opt.max_one_mca_calls = 4;
  KmcaCcStats stats;
  KmcaResult r = SolveKmcaCc(g, opt, &stats);

  EXPECT_TRUE(stats.budget_exhausted);
  EXPECT_TRUE(r.feasible);
  EXPECT_TRUE(IsKArborescence(g.num_vertices(), EdgePairs(g, r.edge_ids)));
  EXPECT_TRUE(SatisfiesFkOnce(g, r.edge_ids));
  EXPECT_GE(r.cost, BruteForceKmcaCc(g, opt.penalty_weight).cost - 1e-9);
}

// All-ties instance: every probability is exactly 0.5, so every edge weight
// is bit-identical and any tie-break asymmetry in the solver would surface
// as run-to-run (or environment-dependent) drift.
JoinGraph AllTiesGraph() {
  JoinGraph g(6);
  g.AddEdge(0, 1, {0}, {0}, 0.5);
  g.AddEdge(0, 2, {0}, {0}, 0.5);  // Conflict with the edge above.
  g.AddEdge(1, 2, {0}, {0}, 0.5);
  g.AddEdge(2, 3, {1}, {0}, 0.5);
  g.AddEdge(3, 4, {0}, {0}, 0.5);
  g.AddEdge(4, 3, {0}, {1}, 0.5);
  g.AddOneToOneEdge(4, 5, {1}, {1}, 0.5);
  g.AddEdge(5, 0, {0}, {2}, 0.5);
  return g;
}

// The graph solvers are sequential, but they run inside a pipeline whose
// worker count comes from AUTOBI_THREADS — equal-weight tie-breaks must not
// depend on that environment (or on how often the solver has run before).
TEST(SolverRegressionTest, TieBreaksAreDeterministicAcrossRunsAndThreadEnv) {
  JoinGraph g = AllTiesGraph();
  KmcaResult base = SolveKmcaCc(g, KmcaCcOptions{}, nullptr);

  for (const char* threads : {"1", "8"}) {
    ASSERT_EQ(setenv("AUTOBI_THREADS", threads, /*overwrite=*/1), 0);
    for (int run = 0; run < 5; ++run) {
      KmcaResult r = SolveKmcaCc(g, KmcaCcOptions{}, nullptr);
      EXPECT_EQ(r.edge_ids, base.edge_ids)
          << "AUTOBI_THREADS=" << threads << " run=" << run;
      EXPECT_EQ(r.cost, base.cost);  // Bitwise: same adds in the same order.
      KmcaResult plain = SolveKmca(g, DefaultPenaltyWeight());
      KmcaResult plain2 = SolveKmca(g, DefaultPenaltyWeight());
      EXPECT_EQ(plain.edge_ids, plain2.edge_ids);
    }
  }
  unsetenv("AUTOBI_THREADS");
}

TEST(SolverRegressionTest, EdmondsDeterministicOnTiedArcs) {
  // Parallel arcs with identical weights: the returned arc *indices* must be
  // stable across repeated runs.
  std::vector<Arc> arcs = {
      {0, 1, 1.0}, {0, 1, 1.0}, {1, 2, 1.0}, {0, 2, 1.0}, {2, 3, 0.5},
      {1, 3, 0.5}, {3, 1, 1.0},
  };
  auto base = SolveMinCostArborescence(4, arcs, 0);
  ASSERT_TRUE(base.has_value());
  for (int run = 0; run < 10; ++run) {
    auto r = SolveMinCostArborescence(4, arcs, 0);
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, *base) << "run=" << run;
  }
}

// Randomized determinism sweep: generator-drawn tie-heavy instances solved
// twice must agree exactly (the differential harness also re-solves, but
// this pins the property in the default test suite without the oracles).
TEST(SolverRegressionTest, RandomTieHeavyInstancesSolveIdentically) {
  JoinGraphGenOptions gen;
  gen.tie_prob = 1.0;  // Every probability drawn from the quantized ties.
  gen.conflict_density = 0.5;
  Rng master(0xD373231ULL);
  for (int trial = 0; trial < 200; ++trial) {
    Rng rng = master.Fork();
    JoinGraphInstance inst = GenJoinGraph(gen, rng);
    KmcaCcOptions opt;
    opt.penalty_weight = inst.penalty_weight;
    KmcaResult a = SolveKmcaCc(inst.graph, opt, nullptr);
    KmcaResult b = SolveKmcaCc(inst.graph, opt, nullptr);
    EXPECT_EQ(a.edge_ids, b.edge_ids) << "trial=" << trial;
    EXPECT_EQ(a.cost, b.cost) << "trial=" << trial;
  }
}

}  // namespace
}  // namespace autobi

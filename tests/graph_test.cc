#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "fuzz/corpus.h"
#include "fuzz/differential.h"
#include "graph/edmonds.h"
#include "graph/ems.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "graph/validate.h"
#include "oracle/brute_force.h"

namespace autobi {
namespace {

using Pairs = std::vector<std::pair<int, int>>;

// --- Validators.

TEST(ValidateTest, DirectedCycleDetection) {
  EXPECT_FALSE(HasDirectedCycle(3, {{0, 1}, {1, 2}}));
  EXPECT_TRUE(HasDirectedCycle(3, {{0, 1}, {1, 2}, {2, 0}}));
  EXPECT_TRUE(HasDirectedCycle(2, {{0, 1}, {1, 0}}));
  EXPECT_FALSE(HasDirectedCycle(1, {}));
  // Diamond (two paths, no cycle).
  EXPECT_FALSE(HasDirectedCycle(4, {{0, 1}, {0, 2}, {1, 3}, {2, 3}}));
}

TEST(ValidateTest, KArborescenceRecognition) {
  int k = 0;
  // Single path = 1-arborescence.
  EXPECT_TRUE(IsKArborescence(3, {{0, 1}, {1, 2}}, &k));
  EXPECT_EQ(k, 1);
  // Two disjoint trees + isolated vertex = 3 components.
  EXPECT_TRUE(IsKArborescence(5, {{0, 1}, {2, 3}}, &k));
  EXPECT_EQ(k, 3);
  // In-degree 2 is not an arborescence.
  EXPECT_FALSE(IsKArborescence(3, {{0, 2}, {1, 2}}));
  // Cycle is not an arborescence.
  EXPECT_FALSE(IsKArborescence(3, {{0, 1}, {1, 2}, {2, 0}}));
}

TEST(ValidateTest, SpanningArborescenceRequiresRoot) {
  EXPECT_TRUE(IsSpanningArborescence(3, {{0, 1}, {0, 2}}, 0));
  EXPECT_FALSE(IsSpanningArborescence(3, {{0, 1}, {0, 2}}, 1));
  EXPECT_FALSE(IsSpanningArborescence(3, {{0, 1}}, 0));  // Not spanning.
}

TEST(ValidateTest, WeakComponents) {
  EXPECT_EQ(CountWeakComponents(4, {}), 4);
  EXPECT_EQ(CountWeakComponents(4, {{0, 1}, {2, 3}}), 2);
  EXPECT_EQ(CountWeakComponents(4, {{0, 1}, {1, 2}, {2, 3}}), 1);
}

// --- Edmonds (1-MCA).

TEST(EdmondsTest, SimpleStar) {
  std::vector<Arc> arcs = {{0, 1, 1.0}, {0, 2, 2.0}, {1, 2, 5.0}};
  auto result = SolveMinCostArborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(ArcSetWeight(arcs, *result), 3.0);
}

TEST(EdmondsTest, ChoosesCheaperPath) {
  std::vector<Arc> arcs = {{0, 1, 1.0}, {0, 2, 10.0}, {1, 2, 1.0}};
  auto result = SolveMinCostArborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(ArcSetWeight(arcs, *result), 2.0);  // 0->1->2.
}

TEST(EdmondsTest, CycleContractionClassic) {
  // Cheap 2-cycle between 1 and 2 must be broken via the root.
  std::vector<Arc> arcs = {
      {1, 2, 1.0}, {2, 1, 1.0}, {0, 1, 5.0}, {0, 2, 4.0}};
  auto result = SolveMinCostArborescence(3, arcs, 0);
  ASSERT_TRUE(result.has_value());
  // Best: 0->2 (4) + 2->1 (1) = 5.
  EXPECT_DOUBLE_EQ(ArcSetWeight(arcs, *result), 5.0);
}

TEST(EdmondsTest, InfeasibleWhenVertexUnreachable) {
  std::vector<Arc> arcs = {{0, 1, 1.0}};
  EXPECT_FALSE(SolveMinCostArborescence(3, arcs, 0).has_value());
}

TEST(EdmondsTest, SingleVertexTrivial) {
  auto result = SolveMinCostArborescence(1, {}, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_TRUE(result->empty());
}

TEST(EdmondsTest, MultiEdgesPickCheapest) {
  std::vector<Arc> arcs = {{0, 1, 7.0}, {0, 1, 2.0}, {0, 1, 9.0}};
  auto result = SolveMinCostArborescence(2, arcs, 0);
  ASSERT_TRUE(result.has_value());
  ASSERT_EQ(result->size(), 1u);
  EXPECT_EQ((*result)[0], 1);
}

TEST(EdmondsTest, IgnoresArcsIntoRootAndSelfLoops) {
  std::vector<Arc> arcs = {{1, 0, 0.1}, {1, 1, 0.1}, {0, 1, 3.0}};
  auto result = SolveMinCostArborescence(2, arcs, 0);
  ASSERT_TRUE(result.has_value());
  EXPECT_DOUBLE_EQ(ArcSetWeight(arcs, *result), 3.0);
}

// Property: Edmonds output matches brute force on random multigraphs, and is
// always a valid spanning arborescence when one exists.
class EdmondsPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(EdmondsPropertyTest, MatchesBruteForce) {
  Rng rng(GetParam());
  for (int trial = 0; trial < 15; ++trial) {
    int n = 2 + int(rng.NextBelow(5));
    std::vector<Arc> arcs;
    size_t m = 2 + rng.NextBelow(10);
    for (size_t i = 0; i < m; ++i) {
      int u = int(rng.NextBelow(size_t(n)));
      int v = int(rng.NextBelow(size_t(n)));
      arcs.push_back(Arc{u, v, std::floor(rng.NextDouble(0, 10) * 4) / 4});
    }
    int root = int(rng.NextBelow(size_t(n)));
    auto fast = SolveMinCostArborescence(n, arcs, root);
    auto slow = BruteForceMinArborescence(n, arcs, root);
    ASSERT_EQ(fast.has_value(), slow.has_value());
    if (!fast.has_value()) continue;
    Pairs pairs;
    for (int i : *fast) {
      pairs.emplace_back(arcs[size_t(i)].src, arcs[size_t(i)].dst);
    }
    EXPECT_TRUE(IsSpanningArborescence(n, pairs, root));
    EXPECT_NEAR(ArcSetWeight(arcs, *fast), ArcSetWeight(arcs, *slow), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EdmondsPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- JoinGraph.

TEST(JoinGraphTest, EdgeWeightIsNegLogProbability) {
  JoinGraph g(2);
  int id = g.AddEdge(0, 1, {0}, {0}, 0.5);
  EXPECT_NEAR(g.edge(id).weight, -std::log(0.5), 1e-12);
}

TEST(JoinGraphTest, ProbabilityClampedAwayFromZeroAndOne) {
  JoinGraph g(2);
  int a = g.AddEdge(0, 1, {0}, {0}, 0.0);
  int b = g.AddEdge(0, 1, {1}, {0}, 1.0);
  EXPECT_GT(g.edge(a).probability, 0.0);
  EXPECT_LT(g.edge(b).probability, 1.0);
  EXPECT_TRUE(std::isfinite(g.edge(a).weight));
}

TEST(JoinGraphTest, SourceKeysGroupBySourceColumns) {
  JoinGraph g(3);
  int a = g.AddEdge(0, 1, {0}, {0}, 0.9);
  int b = g.AddEdge(0, 2, {0}, {0}, 0.8);  // Same source column.
  int c = g.AddEdge(0, 1, {1}, {0}, 0.7);  // Different source column.
  EXPECT_EQ(g.edge(a).source_key, g.edge(b).source_key);
  EXPECT_NE(g.edge(a).source_key, g.edge(c).source_key);
}

TEST(JoinGraphTest, OneToOneAddsBothOrientationsSharingPair) {
  JoinGraph g(2);
  g.AddOneToOneEdge(0, 1, {0}, {2}, 0.8);
  ASSERT_EQ(g.num_edges(), 2u);
  EXPECT_EQ(g.edge(0).pair_id, g.edge(1).pair_id);
  EXPECT_EQ(g.edge(0).src, g.edge(1).dst);
  EXPECT_EQ(g.edge(0).src_columns, g.edge(1).dst_columns);
  EXPECT_TRUE(g.edge(0).one_to_one);
}

// --- k-MCA (Algorithm 2).

TEST(KmcaTest, PenaltyCostFormula) {
  JoinGraph g(4);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  double p = DefaultPenaltyWeight();
  // One edge, 4 vertices -> k = 3 components -> cost = w + 2p.
  EXPECT_NEAR(KArborescenceCost(g, {0}, p),
              -std::log(0.9) + 2 * p, 1e-12);
  // No edges -> k = 4 -> 3 penalties.
  EXPECT_NEAR(KArborescenceCost(g, {}, p), 3 * p, 1e-12);
}

TEST(KmcaTest, HighProbabilityEdgesSelected) {
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {1}, {0}, 0.8);
  KmcaResult r = SolveKmca(g, DefaultPenaltyWeight());
  EXPECT_EQ(r.edge_ids, (std::vector<int>{0, 1}));
  EXPECT_EQ(r.k, 1);
}

TEST(KmcaTest, LowProbabilityEdgesDropped) {
  // p < 0.5 edges cost more than the virtual-edge penalty, so k-MCA prefers
  // disconnecting (the coin-toss semantics of Section 4.3.2).
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {1}, {0}, 0.3);
  KmcaResult r = SolveKmca(g, DefaultPenaltyWeight());
  EXPECT_EQ(r.edge_ids, (std::vector<int>{0}));
  EXPECT_EQ(r.k, 2);
}

TEST(KmcaTest, InfersNumberOfSnowflakes) {
  // Two independent stars -> k = 2 (the Figure 4 structure).
  JoinGraph g(6);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {1}, {0}, 0.9);
  g.AddEdge(3, 4, {0}, {0}, 0.9);
  g.AddEdge(3, 5, {1}, {0}, 0.9);
  KmcaResult r = SolveKmca(g, DefaultPenaltyWeight());
  EXPECT_EQ(r.k, 2);
  EXPECT_EQ(r.edge_ids.size(), 4u);
}

TEST(KmcaTest, GlobalBeatsGreedyOnFigure3Decoy) {
  // The decoy e5 (P=0.8) from the same source column as e1 shares no source
  // here, but competes for Customers' structure: a greedy method would take
  // it; k-MCA keeps the arborescence with the highest joint probability.
  JoinGraph g(6);
  int e1 = g.AddEdge(0, 1, {0}, {0}, 0.9);
  int e2 = g.AddEdge(0, 2, {1}, {0}, 0.7);
  int e3 = g.AddEdge(0, 3, {2}, {0}, 0.6);
  int e4 = g.AddEdge(1, 4, {1}, {0}, 0.7);
  g.AddEdge(0, 4, {3}, {0}, 0.4);                // e6: weaker path to segs.
  int e7 = g.AddEdge(2, 5, {1}, {0}, 0.8);
  KmcaResult r = SolveKmca(g, DefaultPenaltyWeight());
  EXPECT_EQ(r.edge_ids, (std::vector<int>{e1, e2, e3, e4, e7}));
}

// Lemma 1: minimizing sum of -log(P) == maximizing product of P.
TEST(KmcaTest, Lemma1ProductSumEquivalence) {
  Rng rng(42);
  JoinGraph g(5);
  for (int i = 0; i < 10; ++i) {
    int u = int(rng.NextBelow(5));
    int v = int(rng.NextBelow(5));
    if (u == v) continue;
    g.AddEdge(u, v, {i}, {0}, rng.NextDouble(0.05, 0.95));
  }
  double p = DefaultPenaltyWeight();
  KmcaResult best = SolveKmca(g, p);
  KmcaResult brute = BruteForceKmca(g, p);
  EXPECT_NEAR(best.cost, brute.cost, 1e-9);
  // Translate both to joint probability (with 0.5 per virtual edge): equal.
  auto joint = [&](const KmcaResult& r) {
    double logp = 0;
    for (int id : r.edge_ids) logp += std::log(g.edge(id).probability);
    logp += (r.k - 1) * std::log(0.5);
    return logp;
  };
  EXPECT_NEAR(joint(best), joint(brute), 1e-9);
}

// Property: Algorithm 2 is optimal vs brute force on random graphs.
class KmcaPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KmcaPropertyTest, OptimalAndValid) {
  Rng rng(GetParam() * 977);
  for (int trial = 0; trial < 8; ++trial) {
    int n = 2 + int(rng.NextBelow(4));
    JoinGraph g(n);
    size_t m = rng.NextBelow(12);
    for (size_t i = 0; i < m; ++i) {
      int u = int(rng.NextBelow(size_t(n)));
      int v = int(rng.NextBelow(size_t(n)));
      if (u == v) continue;
      g.AddEdge(u, v, {int(i)}, {0}, rng.NextDouble(0.05, 0.95));
    }
    double p = rng.NextDouble(0.1, 1.2);
    KmcaResult fast = SolveKmca(g, p);
    KmcaResult brute = BruteForceKmca(g, p);
    ASSERT_TRUE(fast.feasible);
    EXPECT_NEAR(fast.cost, brute.cost, 1e-9);
    Pairs pairs;
    for (int id : fast.edge_ids) {
      pairs.emplace_back(g.edge(id).src, g.edge(id).dst);
    }
    int k = 0;
    EXPECT_TRUE(IsKArborescence(n, pairs, &k));
    EXPECT_EQ(k, fast.k);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmcaPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- k-MCA-CC (Algorithm 3).

TEST(KmcaCcTest, FkOnceSatisfiedAlways) {
  // Two edges from the same source column: only one may survive.
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {0}, {0}, 0.8);  // Same source column {0}.
  KmcaResult r = SolveKmcaCc(g);
  EXPECT_TRUE(SatisfiesFkOnce(g, r.edge_ids));
  EXPECT_EQ(r.edge_ids.size(), 1u);
  EXPECT_EQ(r.edge_ids[0], 0);  // Keeps the more probable edge.
}

TEST(KmcaCcTest, ConstraintCanForceRestructure) {
  // Without FK-once, both 0->1 and 0->2 (same column) would be taken; with
  // it, the solver must route 2 through 1.
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {0}, {0}, 0.85);
  g.AddEdge(1, 2, {1}, {0}, 0.6);
  KmcaCcOptions opt;
  KmcaResult with_cc = SolveKmcaCc(g, opt);
  EXPECT_TRUE(SatisfiesFkOnce(g, with_cc.edge_ids));
  EXPECT_EQ(with_cc.edge_ids, (std::vector<int>{0, 2}));

  opt.enforce_fk_once = false;
  KmcaResult without = SolveKmcaCc(g, opt);
  EXPECT_EQ(without.edge_ids, (std::vector<int>{0, 1}));
}

TEST(KmcaCcTest, StatsCountOneMcaCalls) {
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {0}, {0}, 0.8);
  KmcaCcStats stats;
  SolveKmcaCc(g, KmcaCcOptions{}, &stats);
  EXPECT_GE(stats.one_mca_calls, 1);
  EXPECT_GE(stats.nodes, 1);
}

TEST(KmcaCcTest, NoConflictSolvesInOneCall) {
  JoinGraph g(3);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {1}, {0}, 0.9);
  KmcaCcStats stats;
  SolveKmcaCc(g, KmcaCcOptions{}, &stats);
  EXPECT_EQ(stats.one_mca_calls, 1);
}

// Property: Algorithm 3 optimal vs constrained brute force; FK-once always
// holds; result is a k-arborescence.
class KmcaCcPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(KmcaCcPropertyTest, OptimalAndFeasible) {
  Rng rng(GetParam() * 1315423911ULL);
  for (int trial = 0; trial < 6; ++trial) {
    int n = 2 + int(rng.NextBelow(4));
    JoinGraph g(n);
    size_t m = rng.NextBelow(11);
    for (size_t i = 0; i < m; ++i) {
      int u = int(rng.NextBelow(size_t(n)));
      int v = int(rng.NextBelow(size_t(n)));
      if (u == v) continue;
      // Few distinct source columns -> frequent FK-once conflicts.
      int src_col = int(rng.NextBelow(2));
      g.AddEdge(u, v, {src_col}, {0}, rng.NextDouble(0.05, 0.95));
    }
    KmcaCcOptions opt;
    opt.penalty_weight = rng.NextDouble(0.1, 1.2);
    KmcaResult fast = SolveKmcaCc(g, opt);
    KmcaResult brute = BruteForceKmcaCc(g, opt.penalty_weight);
    ASSERT_TRUE(fast.feasible);
    EXPECT_TRUE(SatisfiesFkOnce(g, fast.edge_ids));
    EXPECT_NEAR(fast.cost, brute.cost, 1e-9);
    Pairs pairs;
    for (int id : fast.edge_ids) {
      pairs.emplace_back(g.edge(id).src, g.edge(id).dst);
    }
    EXPECT_TRUE(IsKArborescence(n, pairs));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KmcaCcPropertyTest,
                         ::testing::Range(uint64_t{1}, uint64_t{13}));

// --- Figure 7 counterfactual estimators.

TEST(Fig7EstimatorsTest, BruteForceCallsGrowSuperExponentially) {
  // sum_k S(n,k)*k: n=1 -> 1, n=2 -> 3 (S(2,1)*1 + S(2,2)*2 = 1 + 2),
  // n=3 -> S(3,1)+S(3,2)*2+S(3,3)*3 = 1+6+3 = 10.
  EXPECT_DOUBLE_EQ(EstimateBruteForceKmcaCalls(1), 1.0);
  EXPECT_DOUBLE_EQ(EstimateBruteForceKmcaCalls(2), 3.0);
  EXPECT_DOUBLE_EQ(EstimateBruteForceKmcaCalls(3), 10.0);
  EXPECT_GT(EstimateBruteForceKmcaCalls(20), 1e13);
}

TEST(Fig7EstimatorsTest, UnprunedBranchProduct) {
  JoinGraph g(4);
  g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {0}, {0}, 0.9);  // Conflict group of size 2.
  g.AddEdge(0, 3, {0}, {0}, 0.9);  // -> size 3.
  g.AddEdge(1, 2, {0}, {0}, 0.9);
  g.AddEdge(1, 3, {0}, {0}, 0.9);  // Second group, size 2.
  EXPECT_DOUBLE_EQ(EstimateUnprunedBranchCalls(g), 6.0);
}

// --- EMS (recall mode).

TEST(EmsTest, AddsConfidentNonConflictingEdges) {
  JoinGraph g(4);
  int backbone = g.AddEdge(0, 1, {0}, {0}, 0.9);
  int extra = g.AddEdge(2, 1, {0}, {0}, 0.8);  // Second fact -> shared dim.
  g.AddEdge(3, 1, {0}, {0}, 0.3);              // Below τ.
  std::vector<int> s = SolveEmsGreedy(g, {backbone});
  EXPECT_EQ(s, std::vector<int>{extra});
}

TEST(EmsTest, RespectsFkOnceAgainstBackbone) {
  JoinGraph g(3);
  int backbone = g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(0, 2, {0}, {0}, 0.95);  // Same source column as backbone.
  EXPECT_TRUE(SolveEmsGreedy(g, {backbone}).empty());
}

TEST(EmsTest, RejectsCycleCreatingEdges) {
  JoinGraph g(2);
  int backbone = g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddEdge(1, 0, {0}, {0}, 0.9);  // Would create a 2-cycle.
  EXPECT_TRUE(SolveEmsGreedy(g, {backbone}).empty());
}

TEST(EmsTest, OneOrientationPerOneToOnePair) {
  JoinGraph g(3);
  int backbone = g.AddEdge(0, 1, {0}, {0}, 0.9);
  g.AddOneToOneEdge(1, 2, {0}, {0}, 0.8);  // Edges 1 and 2 share a pair.
  std::vector<int> s = SolveEmsGreedy(g, {backbone});
  EXPECT_EQ(s.size(), 1u);
}

TEST(EmsTest, GreedyPrefersHigherProbability) {
  JoinGraph g(3);
  // Two conflicting candidates (same source column), only one can enter.
  g.AddEdge(0, 1, {0}, {0}, 0.7);
  int better = g.AddEdge(0, 2, {0}, {0}, 0.9);
  std::vector<int> s = SolveEmsGreedy(g, {});
  EXPECT_EQ(s, std::vector<int>{better});
}

TEST(EmsTest, TauThresholdHonored) {
  JoinGraph g(2);
  g.AddEdge(0, 1, {0}, {0}, 0.6);
  EmsOptions opt;
  opt.tau = 0.7;
  EXPECT_TRUE(SolveEmsGreedy(g, {}, opt).empty());
  opt.tau = 0.5;
  EXPECT_EQ(SolveEmsGreedy(g, {}, opt).size(), 1u);
}

// --- Corpus replay.

#ifndef AUTOBI_CORPUS_DIR
#define AUTOBI_CORPUS_DIR ""
#endif

// Every checked-in fuzz-corpus case (seeded adversarial instances plus
// minimized finds) must parse and pass the full differential cross-check.
// Keeping this in the core graph suite means a solver regression on a known
// repro fails even when the fuzz smoke target is not built.
TEST(CorpusReplayTest, CheckedInCasesPassDifferentialCrossCheck) {
  std::vector<std::string> files = ListCorpusFiles(AUTOBI_CORPUS_DIR);
  ASSERT_GE(files.size(), 10u)
      << "fuzz corpus missing or too small at " << AUTOBI_CORPUS_DIR;
  for (const std::string& path : files) {
    SCOPED_TRACE(path);
    CorpusCase c;
    std::string error;
    ASSERT_TRUE(LoadCorpusFile(path, &c, &error)) << error;
    if (c.graph.num_edges() > 20) continue;  // Oracle cap; fuzzer covers it.
    CheckResult r = CheckJoinGraphDifferential(c.graph, c.penalty_weight);
    EXPECT_TRUE(r.ok) << r.kind << ": " << r.message;
  }
}

// The corpus text format round-trips exactly (ids, columns, probabilities).
TEST(CorpusReplayTest, FormatRoundTripsBitExactly) {
  for (const std::string& path : ListCorpusFiles(AUTOBI_CORPUS_DIR)) {
    SCOPED_TRACE(path);
    CorpusCase c;
    std::string error;
    ASSERT_TRUE(LoadCorpusFile(path, &c, &error)) << error;
    std::string text =
        FormatCorpusCase(c.graph, c.penalty_weight, c.comments);
    CorpusCase again;
    ASSERT_TRUE(ParseCorpusCase(text, &again, &error)) << error;
    ASSERT_EQ(again.graph.num_edges(), c.graph.num_edges());
    for (size_t i = 0; i < c.graph.num_edges(); ++i) {
      const JoinEdge& a = c.graph.edge(int(i));
      const JoinEdge& b = again.graph.edge(int(i));
      EXPECT_EQ(a.src, b.src);
      EXPECT_EQ(a.dst, b.dst);
      EXPECT_EQ(a.probability, b.probability);  // Bitwise via %.17g.
      EXPECT_EQ(a.weight, b.weight);
      EXPECT_EQ(a.source_key, b.source_key);
      EXPECT_EQ(a.one_to_one, b.one_to_one);
    }
  }
}

}  // namespace
}  // namespace autobi

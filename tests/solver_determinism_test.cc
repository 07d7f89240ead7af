// PR 4 determinism contract for the wave-parallel k-MCA-CC solver and the
// workspace-based Edmonds rewrite:
//   - results AND stats are byte-identical at any thread count (explicit
//     `options.threads` or the AUTOBI_THREADS environment override),
//   - one reused EdmondsWorkspace reproduces the frozen recursive reference
//     arc-for-arc across many solves (corpus-derived augmented instances and
//     adversarial random arc instances),
//   - canonical-signature memoization actually deduplicates subproblems
//     reached via different branch orders, without changing the optimum.

#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz/corpus.h"
#include "fuzz/generator.h"
#include "graph/edmonds.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "oracle/solver_oracle.h"

namespace autobi {
namespace {

struct Solved {
  KmcaResult result;
  KmcaCcStats stats;
};

Solved SolveWithThreads(const JoinGraph& g, int threads,
                        long max_calls = 2'000'000) {
  KmcaCcOptions opt;
  opt.threads = threads;
  opt.max_one_mca_calls = max_calls;
  Solved s;
  s.result = SolveKmcaCc(g, opt, &s.stats);
  return s;
}

void ExpectIdentical(const Solved& a, const Solved& b, const char* what) {
  EXPECT_EQ(a.result.edge_ids, b.result.edge_ids) << what;
  EXPECT_EQ(a.result.cost, b.result.cost) << what;  // Exact, not NEAR.
  EXPECT_EQ(a.result.k, b.result.k) << what;
  EXPECT_EQ(a.result.feasible, b.result.feasible) << what;
  EXPECT_EQ(a.stats.one_mca_calls, b.stats.one_mca_calls) << what;
  EXPECT_EQ(a.stats.nodes, b.stats.nodes) << what;
  EXPECT_EQ(a.stats.pruned, b.stats.pruned) << what;
  EXPECT_EQ(a.stats.memo_hits, b.stats.memo_hits) << what;
  EXPECT_EQ(a.stats.waves, b.stats.waves) << what;
  EXPECT_EQ(a.stats.budget_exhausted, b.stats.budget_exhausted) << what;
}

// Conflict-dense generator settings: most instances branch, many have >= 8
// open subtrees, exact ties exercise the lexicographic incumbent rule.
JoinGraphGenOptions ConflictDenseGen() {
  JoinGraphGenOptions gen;
  gen.min_vertices = 4;
  gen.max_vertices = 9;
  gen.min_edges = 6;
  gen.max_edges = 24;
  gen.conflict_density = 0.7;
  gen.tie_prob = 0.5;
  gen.parallel_edge_prob = 0.3;
  return gen;
}

TEST(SolverDeterminismTest, ThreadSweepIsByteIdentical) {
  Rng rng(0xD5EEDu);
  JoinGraphGenOptions gen = ConflictDenseGen();
  for (int i = 0; i < 60; ++i) {
    JoinGraphInstance inst = GenJoinGraph(gen, rng);
    Solved t1 = SolveWithThreads(inst.graph, 1);
    Solved t2 = SolveWithThreads(inst.graph, 2);
    Solved t8 = SolveWithThreads(inst.graph, 8);
    ExpectIdentical(t1, t2, "threads=1 vs threads=2");
    ExpectIdentical(t1, t8, "threads=1 vs threads=8");
    // And across repeated runs at the same thread count.
    Solved t8b = SolveWithThreads(inst.graph, 8);
    ExpectIdentical(t8, t8b, "threads=8 run 1 vs run 2");
  }
}

TEST(SolverDeterminismTest, EnvThreadOverrideIsByteIdentical) {
  Rng rng(0xE24Fu);
  JoinGraphGenOptions gen = ConflictDenseGen();
  std::vector<JoinGraphInstance> instances;
  for (int i = 0; i < 12; ++i) instances.push_back(GenJoinGraph(gen, rng));

  std::vector<Solved> at_one;
  ASSERT_EQ(setenv("AUTOBI_THREADS", "1", 1), 0);
  for (const JoinGraphInstance& inst : instances) {
    at_one.push_back(SolveWithThreads(inst.graph, /*threads=*/0));
  }
  ASSERT_EQ(setenv("AUTOBI_THREADS", "8", 1), 0);
  for (size_t i = 0; i < instances.size(); ++i) {
    Solved at_eight = SolveWithThreads(instances[i].graph, /*threads=*/0);
    ExpectIdentical(at_one[i], at_eight, "AUTOBI_THREADS=1 vs 8");
  }
  unsetenv("AUTOBI_THREADS");
}

TEST(SolverDeterminismTest, BudgetedSearchIsThreadCountInvariant) {
  // The budget is charged serially at wave formation, so even a truncated
  // search (including the greedy fallback path) must not depend on the
  // thread count.
  Rng rng(0xB4D6E7u);
  JoinGraphGenOptions gen = ConflictDenseGen();
  for (int i = 0; i < 40; ++i) {
    JoinGraphInstance inst = GenJoinGraph(gen, rng);
    for (long budget : {1L, 3L, 7L}) {
      Solved t1 = SolveWithThreads(inst.graph, 1, budget);
      Solved t8 = SolveWithThreads(inst.graph, 8, budget);
      ExpectIdentical(t1, t8, "budgeted threads=1 vs threads=8");
    }
  }
}

// One workspace, many solves: the iterative contraction must reproduce the
// frozen recursive reference arc-for-arc (same indices, not just the same
// weight) with all scratch reused across calls.
TEST(SolverDeterminismTest, ReusedWorkspaceMatchesRecursiveReference) {
  EdmondsWorkspace workspace;
  int solved = 0;

  // Corpus repros, lifted to their augmented k-MCA instances.
  for (const std::string& path : ListCorpusFiles(AUTOBI_CORPUS_DIR)) {
    CorpusCase c;
    std::string error;
    ASSERT_TRUE(LoadCorpusFile(path, &c, &error)) << path << ": " << error;
    if (c.graph.num_vertices() == 0) continue;
    KmcaInstance inst = BuildKmcaInstance(c.graph, c.penalty_weight);
    ASSERT_TRUE(workspace.Solve(inst.num_vertices + 1, inst.arcs,
                                inst.artificial_root))
        << path;
    auto legacy = SolveMinCostArborescenceLegacy(
        inst.num_vertices + 1, inst.arcs, inst.artificial_root);
    ASSERT_TRUE(legacy.has_value()) << path;
    EXPECT_EQ(workspace.selected(), *legacy) << path;
    ++solved;
  }
  EXPECT_GT(solved, 0) << "corpus at " AUTOBI_CORPUS_DIR " is empty";

  // Adversarial random arc instances (negative weights, self-loops,
  // duplicates, unreachable vertices).
  Rng rng(0xA5C4u);
  ArcGenOptions gen;
  for (int i = 0; i < 500; ++i) {
    ArcInstance inst = GenArcInstance(gen, rng);
    bool ok = workspace.Solve(inst.num_vertices, inst.arcs, inst.root);
    auto legacy = SolveMinCostArborescenceLegacy(inst.num_vertices, inst.arcs,
                                                 inst.root);
    ASSERT_EQ(ok, legacy.has_value()) << FormatArcInstance(inst);
    if (ok) EXPECT_EQ(workspace.selected(), *legacy) << FormatArcInstance(inst);
  }
}

// Two branch orders that converge on the same masked subproblem: a hub with
// one conflict group {a, b, c} plus costlier parallel alternatives for two
// of the destinations. Dropping b then c and dropping c then b both reach
// the masked set {a, b, c}'s complement sibling — the second occurrence must
// be a memo hit, and the optimum must match the legacy reference exactly.
TEST(SolverDeterminismTest, MemoizationDeduplicatesConvergingBranches) {
  JoinGraph g(4);
  g.AddEdge(0, 1, {0}, {0}, 0.90);  // a (id 0)
  g.AddEdge(0, 2, {0}, {0}, 0.89);  // b (id 1)
  g.AddEdge(0, 3, {0}, {0}, 0.88);  // c (id 2)
  g.AddEdge(0, 2, {0}, {1}, 0.80);  // d (id 3): alternative for vertex 2
  g.AddEdge(0, 3, {0}, {1}, 0.79);  // e (id 4): alternative for vertex 3

  KmcaCcStats stats;
  KmcaResult r = SolveKmcaCc(g, {}, &stats);
  EXPECT_GT(stats.memo_hits, 0);
  EXPECT_FALSE(stats.budget_exhausted);

  KmcaCcStats legacy_stats;
  KmcaResult legacy = SolveKmcaCcLegacy(g, {}, &legacy_stats);
  EXPECT_EQ(r.cost, legacy.cost);
  EXPECT_EQ(r.edge_ids, legacy.edge_ids);
}

}  // namespace
}  // namespace autobi

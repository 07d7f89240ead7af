#ifndef AUTOBI_GRAPH_KMCA_CC_H_
#define AUTOBI_GRAPH_KMCA_CC_H_

#include <vector>

#include "graph/join_graph.h"
#include "graph/kmca.h"

namespace autobi {

// Fixed number of relaxations solved per branch-and-bound wave. Being a
// constant — rather than a function of the thread count — keeps the explored
// search tree, the result, and every KmcaCcStats counter bit-identical at
// any AUTOBI_THREADS setting; it also caps the useful parallelism of a
// single SolveKmcaCc call (8-way scaling needs >= 8 open subtrees, which
// only conflict-dense instances produce).
inline constexpr int kKmcaCcWaveBatch = 16;

struct KmcaCcOptions {
  // Virtual-edge penalty p (Equation 14); defaults to -log(0.5).
  double penalty_weight = DefaultPenaltyWeight();
  // Disables the FK-once constraint (ablation "no-FK-once-constraint",
  // Figure 8) — the solve then degenerates to plain k-MCA.
  bool enforce_fk_once = true;
  // Safety valve on branch-and-bound search; the optimum is still
  // returned for every case in our benchmarks (real conflict sets are
  // sparse), this only guards against adversarial inputs. When the budget
  // is exhausted before any feasible leaf is reached, the solver returns a
  // greedy feasible fallback (the k-MCA relaxation thinned to one edge per
  // conflict group) rather than an infeasible result; `budget_exhausted`
  // reports that the answer may be suboptimal either way.
  long max_one_mca_calls = 2'000'000;
  // Worker threads for the wave-parallel search: 0 inherits AUTOBI_THREADS /
  // hardware via ResolveThreads. Purely an execution knob — results and
  // stats are bit-identical at any value.
  int threads = 0;
};

struct KmcaCcStats {
  // Number of 1-MCA (Chu-Liu/Edmonds) invocations — the Figure 7 metric.
  long one_mca_calls = 0;
  // Branch-and-bound subproblems whose relaxation was solved.
  long nodes = 0;
  // Subproblems cut by the bound (Line 4 of Algorithm 3), before or after
  // solving their relaxation.
  long pruned = 0;
  // Children skipped because an identical masked subproblem was already
  // created elsewhere in the tree (canonical-signature memoization).
  long memo_hits = 0;
  // Best-first waves executed (each solves <= kKmcaCcWaveBatch relaxations
  // in parallel).
  long waves = 0;
  // True if max_one_mca_calls was hit (result may then be suboptimal).
  bool budget_exhausted = false;
};

// Algorithm 3: solves k-MCA-CC (k-MCA + the FK-once cardinality constraint,
// Equations 14-16) optimally via branch-and-bound over conflicting edge
// sets. NP-hard and Exp-APX-complete in general (Theorem 3), efficient on
// real schema graphs where few candidate edges share a source column.
//
// This implementation runs the search best-first in fixed-size waves: open
// subproblems are ordered by (lower bound, creation order), each wave solves
// up to kKmcaCcWaveBatch relaxations in parallel over one shared augmented
// arc instance (per-slot EdmondsWorkspace arenas, zero steady-state
// allocation per node), and all bound/branch/incumbent decisions happen
// serially between waves. Equal-cost optima are resolved by the
// deterministic incumbent-merge rule: the lexicographically smallest
// (cost, edge_ids) among explored feasible leaves wins. Identical masked
// subproblems reached via different branch orders are deduplicated by their
// canonical signature (the sorted set of masked-out edge ids). See
// ARCHITECTURE.md, "Fast k-MCA-CC".
KmcaResult SolveKmcaCc(const JoinGraph& graph,
                       const KmcaCcOptions& options = {},
                       KmcaCcStats* stats = nullptr);

// True if the edge set satisfies FK-once (Equation 16): no two selected
// edges share the same source column set.
bool SatisfiesFkOnce(const JoinGraph& graph, const std::vector<int>& edge_ids);

}  // namespace autobi

#endif  // AUTOBI_GRAPH_KMCA_CC_H_

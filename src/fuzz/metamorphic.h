#ifndef AUTOBI_FUZZ_METAMORPHIC_H_
#define AUTOBI_FUZZ_METAMORPHIC_H_

#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "fuzz/differential.h"
#include "graph/join_graph.h"
#include "graph/kmca_cc.h"

namespace autobi {

// Metamorphic checks for instances too large for the 2^m brute-force
// oracles. Each property is a provable invariant of the *optimal* objective,
// so any solve that exhausts the branch-and-bound budget (and may therefore
// be suboptimal) skips the case instead of reporting a false mismatch.
//
// Properties:
//   1. Structural validity + self-consistency of the k-MCA-CC result.
//   2. Vertex-relabeling invariance: permuting vertex ids leaves the optimal
//      objective value unchanged.
//   3. Uniform weight scaling: raising every probability to the power c > 0
//      scales every weight by c (w = -log P); with penalty' = c * penalty
//      the optimal objective scales by exactly c.
//   4. Penalty monotonicity: the optimal component count k is non-increasing
//      in the penalty weight (for any optimal solutions J1, J2 at p1 < p2,
//      adding their optimality inequalities gives (k2-k1)(p2-p1) <= 0).
//   5. enforce_fk_once=false is identical to plain k-MCA (same edge ids).
//   6. EMS feasibility on the backbone (FK-once, acyclicity, tau, 1:1 rule).
//   7. Partition invariance: the per-component solve stitched in component
//      order (CheckStitchedSolve) reaches the whole-graph objective with the
//      whole-graph edges, up to exact cost ties.
struct MetamorphicOutcome {
  CheckResult check;
  // True when the branch-and-bound budget was exhausted and the equality
  // properties were skipped (the structural checks still ran).
  bool skipped = false;
};

struct MetamorphicOptions {
  // Branch-and-bound budget per solve; exhausting it skips the case.
  long max_one_mca_calls = 200000;
};

MetamorphicOutcome CheckJoinGraphMetamorphic(const JoinGraph& graph,
                                             double penalty_weight, Rng& rng,
                                             const MetamorphicOptions&
                                                 options = {});

// The global predict's k-MCA-CC solve (RunGlobalPredict, core/auto_bi.cc):
// SolveKmcaCcPerComponent over every component of PartitionJoinGraph that
// has edges, stitched in component order.
struct StitchedSolve {
  std::vector<int> edge_ids;  // Global edge ids, in component order.
  // Equation 8 over the whole graph, from the component costs: every
  // component but one adds one penalty, edgeless singletons included.
  double cost = 0.0;
  KmcaCcStats stats;  // Summed over the solved components.
  size_t components_solved = 0;
};

StitchedSolve SolveKmcaCcStitched(const JoinGraph& graph,
                                  const KmcaCcOptions& options, int threads);

// Property 7 on one instance: SolveKmcaCcStitched reaches the objective of
// SolveKmcaCc on the whole graph (both at `threads`) and selects the same
// edge ids — or, on an exact cost tie, another valid FK-once k-arborescence
// at that objective (the two searches explore different trees, and each
// keeps the smallest edge list among the equal-cost leaves it reached). A
// graph that is one component (no edgeless vertex) must give the identical
// edge list and every identical KmcaCcStats counter. Sets `*exhausted` (and
// passes) when either solve hit its 1-MCA budget.
CheckResult CheckStitchedSolve(const JoinGraph& graph,
                               const KmcaCcOptions& options, int threads,
                               bool* exhausted);

}  // namespace autobi

#endif  // AUTOBI_FUZZ_METAMORPHIC_H_

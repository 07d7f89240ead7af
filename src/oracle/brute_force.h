#ifndef AUTOBI_ORACLE_BRUTE_FORCE_H_
#define AUTOBI_ORACLE_BRUTE_FORCE_H_

#include <optional>
#include <vector>

#include "graph/edmonds.h"
#include "graph/kmca.h"

namespace autobi {

// Exhaustive reference solvers for the tests and the differential fuzzer,
// plus the Figure-7 counterfactual cost estimators. Exponential in the
// number of edges: callers must keep instances small (<= ~20 edges).

// Reference 1-MCA: enumerates every in-arc choice per non-root vertex and
// keeps the cheapest acyclic spanning selection. Returns arc indices.
std::optional<std::vector<int>> BruteForceMinArborescence(
    int num_vertices, const std::vector<Arc>& arcs, int root);

// Reference k-MCA: enumerates all edge subsets, keeps the cheapest
// k-arborescence under Equation 8.
KmcaResult BruteForceKmca(const JoinGraph& graph, double penalty_weight);

// Reference k-MCA-CC: as above, additionally requiring FK-once.
KmcaResult BruteForceKmcaCc(const JoinGraph& graph, double penalty_weight);

// --- Counterfactual cost estimators for Figure 7. Both return the *count of
// 1-MCA invocations* the unoptimized algorithms would need (computed
// analytically; actually running them would time out, as the paper notes).

// Brute-force k-MCA without the artificial-root reduction: one 1-MCA call
// per block of every set partition of the vertices, i.e.
// sum over k of S(n,k) * k (Stirling numbers of the second kind).
double EstimateBruteForceKmcaCalls(int num_vertices);

// k-MCA-CC without branch-and-bound pruning: exhaustive enumeration of one
// edge per conflict group — the product of conflict-group sizes over all
// FK-once groups with >= 2 candidate edges.
double EstimateUnprunedBranchCalls(const JoinGraph& graph);

}  // namespace autobi

#endif  // AUTOBI_ORACLE_BRUTE_FORCE_H_

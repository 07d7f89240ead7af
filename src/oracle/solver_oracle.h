#ifndef AUTOBI_ORACLE_SOLVER_ORACLE_H_
#define AUTOBI_ORACLE_SOLVER_ORACLE_H_

#include <optional>
#include <vector>

#include "graph/edmonds.h"
#include "graph/join_graph.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"

namespace autobi {

// The solvers the workspace-based Edmonds and the wave-parallel k-MCA-CC
// branch-and-bound replaced, kept verbatim as differential references.
// The fuzzer (src/fuzz/differential.cc) and tests/solver_determinism_test.cc
// hold the production solvers to them; bench_fig6_kmcacc and
// bench_micro_graph time them as the "before" column.

// The original recursive, allocating Chu-Liu/Edmonds. EdmondsWorkspace::Solve
// selects the same arcs in the same order.
std::optional<std::vector<int>> SolveMinCostArborescenceLegacy(
    int num_vertices, const std::vector<Arc>& arcs, int root);

// The original serial depth-first branch-and-bound, re-materializing the
// augmented arc array at every node: an exact reference without the 2^m
// edge cap of the brute-force solvers (oracle/brute_force.h).
// `options.threads` is ignored; `stats->memo_hits`/`waves` stay 0.
KmcaResult SolveKmcaCcLegacy(const JoinGraph& graph,
                             const KmcaCcOptions& options = {},
                             KmcaCcStats* stats = nullptr);

}  // namespace autobi

#endif  // AUTOBI_ORACLE_SOLVER_ORACLE_H_

#ifndef AUTOBI_GRAPH_PARTITION_H_
#define AUTOBI_GRAPH_PARTITION_H_

#include <functional>
#include <vector>

#include "graph/join_graph.h"
#include "graph/kmca_cc.h"

namespace autobi {

// Connected components of the join graph, the unit of the global solve. The
// k-MCA-CC cost and the FK-once constraint are both separable across
// connected components (conflict groups share a source vertex, and the
// solver's artificial-root arcs are per-vertex), so each component can be
// solved on its own and the per-component selections stitched in
// deterministic component order.

// One connected component of the join graph under undirected connectivity.
// Components are returned ordered by smallest vertex; `vertices` and
// `edge_ids` are ascending. Every vertex appears in exactly one component —
// including edgeless singletons (callers skip solving those).
struct GraphComponent {
  std::vector<int> vertices;
  std::vector<int> edge_ids;
};

std::vector<GraphComponent> PartitionJoinGraph(const JoinGraph& graph);

// The component's induced subgraph with vertices/edges relabeled to local
// dense ids: vertex = rank in comp.vertices, edge k = comp.edge_ids[k]. The
// remap is monotone, so every deterministic tie-break the solver applies to
// local ids agrees with the global-id order restricted to the component.
// Probabilities, weights, 1:1 pair ids and FK-once conflict groups carry
// over exactly (pair ids are passed through verbatim; source keys re-intern
// to the same grouping because interning is per (src, columns)).
JoinGraph BuildComponentGraph(const JoinGraph& graph,
                              const GraphComponent& comp);

// One component's share of the global solve.
struct ComponentSolve {
  std::vector<int> edge_ids;  // Selected edges as global ids, ascending.
  double cost = 0.0;          // The component's own Equation 8 objective.
  KmcaCcStats stats;
  bool skipped = false;  // `stop` fired before this component was solved.
};

// Runs SolveKmcaCc on the BuildComponentGraph of each of `components` (each
// with at least one edge), results in the same order. Components are the
// unit of parallelism: they fan out over `threads` (ResolveThreads
// semantics), each solved single-threaded, except that a lone component's
// branch-and-bound gets the `threads` itself; `options.threads` is ignored.
// Each component gets the full `options.max_one_mca_calls`. `stop`, when
// set, is polled before each component's solve. Results and stats are
// identical at any thread count.
std::vector<ComponentSolve> SolveKmcaCcPerComponent(
    const JoinGraph& graph,
    const std::vector<const GraphComponent*>& components,
    const KmcaCcOptions& options, int threads,
    const std::function<bool()>& stop = nullptr);

}  // namespace autobi

#endif  // AUTOBI_GRAPH_PARTITION_H_

#ifndef AUTOBI_CORE_GRAPH_BUILDER_H_
#define AUTOBI_CORE_GRAPH_BUILDER_H_

#include <vector>

#include "common/run_context.h"
#include "core/candidates.h"
#include "core/local_model.h"
#include "graph/join_graph.h"

namespace autobi {

// Algorithm 1: turns scored candidates into the weighted global join graph.
// Each N:1 candidate becomes a directed edge (FK side -> PK side); each 1:1
// candidate becomes a bi-directional edge pair. Edge weights are
// w = -log(P) with P the calibrated local-classifier probability.
//
// Returns the graph; `edge_probabilities` come from `model` evaluated with
// `schema_only` features. `local_inference_seconds`, if non-null, receives
// the featurize+score latency (the Local-Inference component of Fig 5(b)).
// Candidates are featurized and scored in parallel (`threads` as in
// ResolveThreads); edges are then added serially in candidate order, so edge
// ids and probabilities are identical at any thread count.
//
// If `run_ctx` is non-null, each candidate's scoring polls
// RunContext::StopRequested at its boundary; candidates skipped after a
// deadline/cancel trip are dropped from the graph and `health` (if non-null)
// is marked degraded. A null or untripped context yields a byte-identical
// graph.
JoinGraph BuildJoinGraph(const std::vector<Table>& tables,
                         const CandidateSet& candidates,
                         const LocalModel& model, bool schema_only,
                         double* local_inference_seconds = nullptr,
                         int threads = 0,
                         const RunContext* run_ctx = nullptr,
                         StageHealth* health = nullptr);

// Sentinel probability of a candidate without a score: not yet scored, or
// skipped after a RunContext deadline/cancel trip (real scores are in
// [0, 1]).
inline constexpr double kSkippedCandidateScore = -1.0;

// Stage 3 as every predict runs it: scores the candidates whose
// `probabilities` entry is kSkippedCandidateScore (scores a state carried
// over stay), then builds the graph. The overload above scores them all.
JoinGraph BuildJoinGraph(const std::vector<Table>& tables,
                         const std::vector<TableProfile>& profiles,
                         const std::vector<JoinCandidate>& candidates,
                         std::vector<double>* probabilities,
                         const LocalModel& model, bool schema_only,
                         double* local_inference_seconds, int threads,
                         const RunContext* run_ctx, StageHealth* health);

// --- The two halves of BuildJoinGraph, exposed so perfbench's replay can
// time scoring and graph assembly as separate layers.

// Featurizes and scores `candidates` in parallel — the scoring half of
// BuildJoinGraph, byte-identical scores in candidate order. Skipped
// candidates (stop trip) get kSkippedCandidateScore.
std::vector<double> ScoreCandidates(const std::vector<Table>& tables,
                                    const std::vector<TableProfile>& profiles,
                                    const std::vector<JoinCandidate>& candidates,
                                    const LocalModel& model, bool schema_only,
                                    int threads = 0,
                                    const RunContext* run_ctx = nullptr);

// The serial edge-add half: builds the graph from pre-scored candidates in
// candidate order, dropping kSkippedCandidateScore entries (and marking
// `health` degraded if any were dropped). BuildJoinGraph ==
// BuildJoinGraphFromScores(tables.size(), cands, ScoreCandidates(...)).
JoinGraph BuildJoinGraphFromScores(size_t num_tables,
                                   const std::vector<JoinCandidate>& candidates,
                                   const std::vector<double>& probabilities,
                                   StageHealth* health = nullptr);

// --- Lake-scale partitioned solve (PR 9). On a data lake the join graph is
// a union of disconnected islands; k-MCA-CC cost and the FK-once constraint
// are both separable across connected components (conflict groups share a
// source vertex, and the solver's artificial-root arcs are per-vertex), so
// each component can be solved independently and the per-component
// selections stitched in deterministic component order.

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

// Telemetry of the partitioned global solve (PR 9): how the join graph
// decomposed into connected components and how each fared. The flat
// single-instance solve (0 or 1 solvable component) leaves `used` false.
struct PartitionStats {
  bool used = false;               // Partitioned path taken this run.
  size_t components = 0;           // All components, edgeless singletons too.
  size_t components_solved = 0;    // Components with >= 1 edge (one solve each).
  size_t largest_component_edges = 0;
  // Health of each solved component, in component order. A budget trip
  // degrades that one component (greedy feasible backbone there) while the
  // others keep their exact solves.
  std::vector<StageHealth> component_health;
};

}  // namespace autobi

#endif  // AUTOBI_CORE_GRAPH_BUILDER_H_

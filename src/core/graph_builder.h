#ifndef AUTOBI_CORE_GRAPH_BUILDER_H_
#define AUTOBI_CORE_GRAPH_BUILDER_H_

#include <vector>

#include "common/run_context.h"
#include "core/candidates.h"
#include "core/local_model.h"
#include "graph/join_graph.h"
#include "graph/partition.h"

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

// Telemetry of the global solve (graph/partition.h): how the join graph
// decomposed into connected components and how each fared. A graph that is
// one island reports one solved component.
struct PartitionStats {
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

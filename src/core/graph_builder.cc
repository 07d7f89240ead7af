#include "core/graph_builder.h"

#include <algorithm>
#include <stdexcept>

#include "common/parallel.h"
#include "common/timer.h"
#include "fuzz/faultpoints.h"

namespace autobi {

namespace {

// Featurizes and scores, in parallel, every candidate whose
// `probabilities` slot is kSkippedCandidateScore; the other slots keep
// their scores. Each slot is written by one iteration, so scores are
// identical at any thread count.
void ScoreUnscored(const std::vector<Table>& tables,
                   const std::vector<TableProfile>& profiles,
                   const std::vector<JoinCandidate>& candidates,
                   const LocalModel& model, bool schema_only, int threads,
                   const RunContext* run_ctx,
                   std::vector<double>* probabilities) {
  std::vector<size_t> todo;
  for (size_t i = 0; i < candidates.size(); ++i) {
    if ((*probabilities)[i] == kSkippedCandidateScore) todo.push_back(i);
  }
  FeatureContext ctx;
  ctx.tables = &tables;
  ctx.profiles = &profiles;
  ctx.frequency = &model.frequency();
  // Fault point: a worker exception inside a parallel region, which the
  // pool rethrows and the service boundary converts to kInternal. Whether
  // the region fails, and at which index, is drawn once here, before the
  // fan-out, so the decision does not depend on thread timing.
  size_t failing = todo.size();
  if (!todo.empty() && FaultPoints::Global().Fire("parallel.task")) {
    const double at = FaultPoints::Global().Fraction("parallel.task");
    failing = std::min(todo.size() - 1, size_t(at * double(todo.size())));
  }
  // LocalModel::Score is const and stateless.
  ParallelFor(
      todo.size(),
      [&](size_t k) {
        if (k == failing) {
          throw std::runtime_error("injected parallel task fault");
        }
        // Item-boundary stop poll: skipped candidates keep the sentinel and
        // are dropped during the serial edge-add pass.
        if (run_ctx != nullptr && run_ctx->StopRequested()) return;
        (*probabilities)[todo[k]] =
            model.Score(ctx, candidates[todo[k]], schema_only);
      },
      threads);
}

}  // namespace

std::vector<double> ScoreCandidates(const std::vector<Table>& tables,
                                    const std::vector<TableProfile>& profiles,
                                    const std::vector<JoinCandidate>& candidates,
                                    const LocalModel& model, bool schema_only,
                                    int threads, const RunContext* run_ctx) {
  std::vector<double> probabilities(candidates.size(), kSkippedCandidateScore);
  ScoreUnscored(tables, profiles, candidates, model, schema_only, threads,
                run_ctx, &probabilities);
  return probabilities;
}

JoinGraph BuildJoinGraphFromScores(size_t num_tables,
                                   const std::vector<JoinCandidate>& candidates,
                                   const std::vector<double>& probabilities,
                                   StageHealth* health) {
  JoinGraph graph(static_cast<int>(num_tables));
  size_t skipped = 0;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const JoinCandidate& cand = candidates[i];
    double p = probabilities[i];
    if (p == kSkippedCandidateScore) {
      ++skipped;
      continue;
    }
    if (cand.one_to_one) {
      graph.AddOneToOneEdge(cand.src.table, cand.dst.table, cand.src.columns,
                            cand.dst.columns, p);
    } else {
      graph.AddEdge(cand.src.table, cand.dst.table, cand.src.columns,
                    cand.dst.columns, p);
    }
  }
  if (skipped > 0 && health != nullptr) {
    health->MarkDegraded(
        "run stopped during local inference; unscored candidates dropped");
  }
  return graph;
}

JoinGraph BuildJoinGraph(const std::vector<Table>& tables,
                         const CandidateSet& candidates,
                         const LocalModel& model, bool schema_only,
                         double* local_inference_seconds, int threads,
                         const RunContext* run_ctx, StageHealth* health) {
  std::vector<double> probabilities(candidates.candidates.size(),
                                    kSkippedCandidateScore);
  return BuildJoinGraph(tables, candidates.profiles, candidates.candidates,
                        &probabilities, model, schema_only,
                        local_inference_seconds, threads, run_ctx, health);
}

JoinGraph BuildJoinGraph(const std::vector<Table>& tables,
                         const std::vector<TableProfile>& profiles,
                         const std::vector<JoinCandidate>& candidates,
                         std::vector<double>* probabilities,
                         const LocalModel& model, bool schema_only,
                         double* local_inference_seconds, int threads,
                         const RunContext* run_ctx, StageHealth* health) {
  Timer timer;
  ScoreUnscored(tables, profiles, candidates, model, schema_only, threads,
                run_ctx, probabilities);
  JoinGraph graph = BuildJoinGraphFromScores(tables.size(), candidates,
                                             *probabilities, health);
  if (local_inference_seconds != nullptr) {
    *local_inference_seconds = timer.Seconds();
  }
  return graph;
}

}  // namespace autobi

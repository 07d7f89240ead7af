#ifndef AUTOBI_CORE_AUTO_BI_H_
#define AUTOBI_CORE_AUTO_BI_H_

#include <vector>

#include "common/run_context.h"
#include "common/status.h"
#include "core/bi_model.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "core/local_model.h"
#include "core/schema_diff.h"
#include "graph/kmca_cc.h"

namespace autobi {

class PredictCache;

// The three Auto-BI variants evaluated in Section 5.
enum class AutoBiMode {
  kFull,           // Auto-BI: precision mode + recall mode.
  kPrecisionOnly,  // Auto-BI-P: k-MCA-CC backbone only.
  kSchemaOnly,     // Auto-BI-S: full pipeline on metadata-only features.
};

struct AutoBiOptions {
  AutoBiMode mode = AutoBiMode::kFull;
  // Worker threads for the data-parallel pipeline stages (profiling/UCC,
  // IND, local inference, global solve). ResolveThreads semantics: 0 =
  // AUTOBI_THREADS env or hardware concurrency, 1 = serial. The global
  // solve parallelizes across connected components; a graph that is one
  // island hands these threads to its branch-and-bound instead.
  // Predictions are bit-identical at any thread count (see ARCHITECTURE.md,
  // "Concurrency model").
  int threads = 0;
  // Virtual-edge probability: penalty p = -log(this). 0.5 is the calibrated
  // coin-toss default (Section 4.3.2, Figure 9(a)).
  double penalty_probability = 0.5;
  // Recall-mode threshold τ (Section 4.3.3, Figure 9(b)).
  double tau = 0.5;
  // --- Ablation switches (Figure 8). Defaults are the full system.
  bool enforce_fk_once = true;    // false => "no-FK-once-constraint".
  bool use_precision_mode = true; // false => "no-precision-mode".
  bool lc_only = false;           // true  => "LC-only".
  CandidateGenOptions candidates;
  // penalty_weight, enforce_fk_once and threads are overwritten (threads
  // from `threads` above).
  KmcaCcOptions solver;
  // Optional cross-request cache (core/predict_cache.h; not owned, must
  // outlive the predictor). Stateless predicts read and fill its table
  // shard in the profiling layer. It also memoizes whole healthy solves
  // keyed by the content hash of the table set plus an options/budget
  // fingerprint: a byte-identical re-submission returns the cached result
  // without running the pipeline. Hits are bit-identical to recomputation
  // (models, graph, solver stats); only timing differs. Runs tripped by a
  // deadline/cancel never populate the memo. Stateful predicts only add to
  // the memo.
  PredictCache* cache = nullptr;
};

// Per-stage latency (seconds) matching Figure 5(b)'s breakdown.
struct AutoBiTiming {
  double ucc = 0.0;
  double ind = 0.0;
  double local_inference = 0.0;
  double global_predict = 0.0;
  // Effective worker-thread count the parallel stages ran with (0 when the
  // producing method predates / bypasses the thread pool).
  int threads = 0;
  double Total() const { return ucc + ind + local_inference + global_predict; }
};

// Per-stage degradation markers for a RunContext-governed run. A healthy
// run (null context, or nothing tripped) leaves every stage untouched; a
// tripped deadline/cancel/budget marks the stages that gave work up, with a
// human-readable trigger (see ARCHITECTURE.md, "Error handling & graceful
// degradation").
struct AutoBiDegradation {
  StageHealth ucc;
  StageHealth ind;
  StageHealth local_inference;
  StageHealth global_predict;

  bool Any() const {
    return ucc.degraded || ind.degraded || local_inference.degraded ||
           global_predict.degraded;
  }
};

// Observability counters of a PredictIncremental run (core/incremental.h):
// how much work it did versus reused from its state. A plain Predict leaves
// `used` false and everything zero.
struct IncrementalStats {
  // True when a state was reused (false: full rebuild or plain Predict).
  bool used = false;
  // Tables whose profile + UCCs were recomputed from scratch this run.
  size_t tables_reprofiled = 0;
  // Tables whose cached profile was merged forward over an appended suffix
  // (MergeAppendedTableProfile) instead of rescanned.
  size_t tables_delta_merged = 0;
  // Unordered table pairs whose IND scan + candidate scoring re-ran.
  size_t pairs_rescored = 0;
  // Unordered table pairs whose cached candidates + scores were reused.
  size_t pairs_reused = 0;
  // True when the global solve was reused wholesale because the join graph
  // was structurally identical to the previous run's.
  bool warm_start_used = false;
};

struct AutoBiResult {
  BiModel model;
  AutoBiTiming timing;
  // Solver telemetry for Figures 6 and 7, summed over the solved
  // components.
  KmcaCcStats solver_stats;
  double kmca_cc_seconds = 0.0;
  // The constructed join graph (diagnostics / tests).
  JoinGraph graph;
  // Edge ids selected by precision mode (backbone J*) and recall mode (S).
  std::vector<int> backbone_edges;
  std::vector<int> recall_edges;
  // What (if anything) was degraded by the run's deadline/cancel/budgets.
  AutoBiDegradation degradation;
  // Reuse observability (all-zero unless PredictIncremental ran).
  IncrementalStats incremental;
  // Candidate-generation counters, including the blocking stage's pruning
  // numbers (profile/ind.h). Surfaced by the serve stats/predict verbs and
  // bench_lake.
  IndStats ind_stats;
  // Partitioned-solve telemetry (PartitionStats, core/graph_builder.h).
  PartitionStats partition;
};

// Cross-call state of the pipeline (core/incremental.h): cached snapshots,
// profiles, scored candidates, graph and solve of the previous healthy
// stateful run. Opaque here so auto_bi.h stays free of the pipeline's
// internals; default-constructible and movable, owned by the caller (one per
// logical table-set, e.g. per serve session).
struct IncrementalState;

// The online Auto-BI predictor (Section 4.3): candidate generation ->
// calibrated local scoring -> k-MCA-CC precision mode -> EMS recall mode.
class AutoBi {
 public:
  // `model` must outlive this object.
  AutoBi(const LocalModel* model, AutoBiOptions options = {});

  // Service entry point. Validates the input tables (kInvalidInput on
  // malformed ones) and runs the pipeline under `ctx` (may be null):
  // deadline/cancel trips and budgets degrade stages gracefully — the call
  // still succeeds with a feasible partial model and the skipped work
  // recorded in result.degradation. Unexpected internal failures (including
  // injected parallel-task faults) surface as kInternal rather than
  // propagating exceptions. A null or untripped context produces output
  // bit-identical to the legacy overload at any thread count.
  //
  // `snapshots`, when given, must hold SnapshotTable(tables[i]) in slot i
  // (core/schema_diff.h), optionally with an append record; the predict
  // then reads no cell to key its caches and diff. A caller that keeps
  // tables across predicts (the serving engine) hashes each once, when it
  // arrives. Null: every table is hashed here, once per call. The result is
  // the same either way.
  StatusOr<AutoBiResult> Predict(
      const std::vector<Table>& tables, const RunContext* ctx,
      const std::vector<TableSnapshot>* snapshots = nullptr) const;

  // Legacy trusted-caller form (tests, benchmarks, baselines, synthetic
  // corpora): no context, CHECK-fails on Status errors.
  AutoBiResult Predict(const std::vector<Table>& tables) const;

  // Delta-aware Predict: Predict's pipeline, given the previous run cached
  // in `*state` (which must outlive the call and be reused across calls over
  // the same evolving table-set), recomputes only the work touching changed
  // tables — appended tables merge their profiles forward, unchanged pairs
  // reuse their candidates and scores, and a structurally identical join
  // graph reuses the previous global solve wholesale.
  //
  // Contract: the returned result is bit-identical to what Predict would
  // return on the same post-change tables — models, graph, edge sets, solver
  // stats, partition telemetry, degradation markers — with only timing,
  // result.incremental, and result.ind_stats (which counts the scans this
  // run actually performed, not what a cold run would redo) differing. The
  // first call (or an invalidated/mismatched state) rebuilds everything as
  // Predict does, without reading the PredictCache; a context stopped at
  // entry or a table over the value-probe budget invalidates the state and
  // runs a plain Predict. Degraded runs never update the state. `state`
  // must not be shared across concurrent calls. `snapshots` as in Predict;
  // an append record in them lets the diff prove an append without
  // rehashing the table's old rows.
  StatusOr<AutoBiResult> PredictIncremental(
      const std::vector<Table>& tables, const RunContext* ctx,
      IncrementalState* state,
      const std::vector<TableSnapshot>* snapshots = nullptr) const;

  const AutoBiOptions& options() const { return options_; }

 private:
  const LocalModel* model_;
  AutoBiOptions options_;
};

// Converts selected graph edges into BiModel joins (1:1 pairs deduplicated to
// a single normalized join).
BiModel EdgesToModel(const JoinGraph& graph, const std::vector<int>& edges);

// Stage 4 of the pipeline (global prediction) when no warm start applies,
// and its only implementation: one k-MCA-CC solve per connected component
// of result->graph, stitched in component order, then EMS recall edges.
// Fills model/backbone_edges/recall_edges/solver_stats/kmca_cc_seconds/
// partition, timing.global_predict, and degradation.global_predict.
// Deterministic function of (graph, options, ctx stop/budget state).
void RunGlobalPredict(const AutoBiOptions& options, const RunContext* ctx,
                      AutoBiResult* result);

// Fingerprint of everything besides the table bytes that deterministically
// shapes a Predict result: the AutoBi options (execution-only knobs like
// `threads` excluded — results are bit-identical at any thread count) and
// the RunContext's deterministic budgets. Deadlines/cancellation are *not*
// part of the key: they are time-dependent, so runs they trip never populate
// the solve memo (checked via result.degradation). Shared by the PredictCache
// solve memo and the IncrementalState options-change detection.
uint64_t SolveKeyFingerprint(const AutoBiOptions& options,
                             const RunContext* ctx);

}  // namespace autobi

#endif  // AUTOBI_CORE_AUTO_BI_H_

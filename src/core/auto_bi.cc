#include "core/auto_bi.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <exception>
#include <memory>
#include <set>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/incremental.h"
#include "core/predict_cache.h"
#include "graph/ems.h"
#include "graph/kmca.h"
#include "profile/sketch.h"

namespace autobi {

AutoBi::AutoBi(const LocalModel* model, AutoBiOptions options)
    : model_(model), options_(std::move(options)) {
  // invariant: constructing a predictor without a trained model is a
  // programmer error, not an input error.
  AUTOBI_CHECK(model_ != nullptr);
}

BiModel EdgesToModel(const JoinGraph& graph, const std::vector<int>& edges) {
  BiModel model;
  std::set<int> used_pairs;
  for (int id : edges) {
    const JoinEdge& e = graph.edge(id);
    if (e.one_to_one) {
      if (used_pairs.count(e.pair_id)) continue;
      used_pairs.insert(e.pair_id);
    }
    Join join;
    join.from = ColumnRef{e.src, e.src_columns};
    join.to = ColumnRef{e.dst, e.dst_columns};
    join.kind = e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    model.joins.push_back(join.Normalized());
  }
  return model;
}

namespace {

uint64_t MixU64(uint64_t h, uint64_t v) { return SplitMix64(h ^ v); }

uint64_t MixDouble(uint64_t h, double d) {
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(d));
  std::memcpy(&bits, &d, sizeof(bits));
  return MixU64(h, bits);
}

}  // namespace

uint64_t SolveKeyFingerprint(const AutoBiOptions& o, const RunContext* ctx) {
  uint64_t h = MixU64(0xA07B1BEEFCAFE001ULL, uint64_t(o.mode));
  h = MixDouble(h, o.penalty_probability);
  h = MixDouble(h, o.tau);
  h = MixU64(h, (uint64_t(o.enforce_fk_once) << 2) |
                    (uint64_t(o.use_precision_mode) << 1) |
                    uint64_t(o.lc_only));
  const CandidateGenOptions& c = o.candidates;
  h = MixU64(h, c.ucc.max_arity);
  h = MixU64(h, c.ucc.max_candidates);
  h = MixDouble(h, c.ucc.min_distinct_ratio);
  h = MixDouble(h, c.ind.min_containment);
  h = MixU64(h, c.ind.min_distinct);
  h = MixDouble(h, c.ind.min_referenced_distinct_ratio);
  h = MixU64(h, c.ind.max_arity);
  h = MixU64(h, c.ind.max_composite_probes);
  h = MixU64(h, uint64_t(c.ind.blocking.enabled));
  h = MixU64(h, c.ind.blocking.bottom_probes);
  h = MixU64(h, c.ind.blocking.heavy_probes);
  h = MixU64(h, c.ind.blocking.probe_all_below);
  h = MixDouble(h, c.one_to_one_distinct_ratio);
  h = MixDouble(h, c.one_to_one_min_containment);
  h = MixU64(h, uint64_t(c.metadata_fallback_for_empty_tables));
  h = MixU64(h, uint64_t(o.solver.max_one_mca_calls));
  if (ctx != nullptr) {
    h = MixU64(h, ctx->budgets.max_rows_per_table);
    h = MixU64(h, ctx->budgets.max_cells_per_table);
    h = MixU64(h, ctx->budgets.max_candidate_pairs);
    h = MixU64(h, uint64_t(ctx->budgets.max_one_mca_calls));
  }
  return h;
}

void RunGlobalPredict(const AutoBiOptions& options, const RunContext* ctx,
                      AutoBiResult* out) {
  AutoBiResult& result = *out;
  const JoinGraph& graph = result.graph;
  Timer global_timer;
  if (ctx != nullptr && ctx->StopRequested()) {
    // Stage-boundary trip: an empty model is always feasible; return it
    // rather than starting a solve we are not allowed to finish.
    result.degradation.global_predict.MarkDegraded(
        "run stopped before global solve; empty model returned");
    result.timing.global_predict = global_timer.Seconds();
    return;
  }
  if (options.lc_only) {
    // Ablation: keep every edge with calibrated probability >= 0.5, no graph
    // optimization (the "LC-only" bar of Figure 8).
    std::vector<int> kept;
    for (const JoinEdge& e : graph.edges()) {
      if (e.probability >= 0.5) kept.push_back(e.id);
    }
    result.model = EdgesToModel(graph, kept);
    result.backbone_edges = kept;
    result.timing.global_predict = global_timer.Seconds();
    return;
  }

  double penalty =
      -std::log(JoinGraph::ClampProbability(options.penalty_probability));

  if (options.use_precision_mode) {
    // Precision mode: the most probable k-snowflakes under FK-once
    // (k-MCA-CC, Algorithm 3). The RunContext 1-MCA budget tightens (never
    // loosens) the solver's own call budget; on exhaustion the solver
    // returns its greedy feasible fallback and we record the degradation.
    KmcaCcOptions solver = options.solver;
    solver.penalty_weight = penalty;
    solver.enforce_fk_once = options.enforce_fk_once;
    if (ctx != nullptr && ctx->budgets.max_one_mca_calls > 0) {
      solver.max_one_mca_calls =
          std::min(solver.max_one_mca_calls, ctx->budgets.max_one_mca_calls);
    }
    // Cost and FK-once are separable across connected components
    // (graph/partition.h), so each component with edges is solved on its
    // own graph and the selections are stitched in component order; a graph
    // that is one island is a partition of one. Each component gets the
    // FULL 1-MCA budget: a trip degrades that one component to its greedy
    // feasible backbone while the others keep their exact solves.
    std::vector<GraphComponent> components = PartitionJoinGraph(graph);
    std::vector<const GraphComponent*> solvable;
    result.partition.components = components.size();
    for (const GraphComponent& c : components) {
      if (c.edge_ids.empty()) continue;
      solvable.push_back(&c);
      result.partition.largest_component_edges = std::max(
          result.partition.largest_component_edges, c.edge_ids.size());
    }
    result.partition.components_solved = solvable.size();
    result.partition.component_health.resize(solvable.size());
    Timer kmca_timer;
    // Component-boundary stop poll: a tripped run leaves the remaining
    // components unsolved (empty backbone there, marked below).
    std::vector<ComponentSolve> solves = SolveKmcaCcPerComponent(
        graph, solvable, solver, options.threads,
        [ctx] { return ctx != nullptr && ctx->StopRequested(); });
    // Stitch serially in component order.
    size_t skipped = 0;
    for (size_t i = 0; i < solves.size(); ++i) {
      const ComponentSolve& s = solves[i];
      StageHealth& health = result.partition.component_health[i];
      if (s.skipped) {
        ++skipped;
        health.MarkDegraded("run stopped before component solve");
        continue;
      }
      result.backbone_edges.insert(result.backbone_edges.end(),
                                   s.edge_ids.begin(), s.edge_ids.end());
      result.solver_stats.one_mca_calls += s.stats.one_mca_calls;
      result.solver_stats.nodes += s.stats.nodes;
      result.solver_stats.pruned += s.stats.pruned;
      result.solver_stats.memo_hits += s.stats.memo_hits;
      result.solver_stats.waves += s.stats.waves;
      if (s.stats.budget_exhausted) {
        result.solver_stats.budget_exhausted = true;
        health.MarkDegraded(
            "1-MCA call budget exhausted; greedy feasible backbone for "
            "this component");
      }
    }
    if (skipped > 0) {
      result.degradation.global_predict.MarkDegraded(StrFormat(
          "run stopped during partitioned solve; %zu of %zu components "
          "unsolved",
          skipped, solves.size()));
    }
    result.kmca_cc_seconds = kmca_timer.Seconds();
    if (result.solver_stats.budget_exhausted) {
      result.degradation.global_predict.MarkDegraded(
          "1-MCA call budget exhausted; greedy feasible backbone in some "
          "components");
    }
  } else {
    // Ablation "no-precision-mode": recall mode growing from nothing.
    result.backbone_edges.clear();
  }

  if (options.mode != AutoBiMode::kPrecisionOnly) {
    if (ctx != nullptr && ctx->StopRequested()) {
      // The backbone alone is a feasible model; skip recall growth.
      result.degradation.global_predict.MarkDegraded(
          "run stopped before recall mode; backbone-only model");
    } else {
      // Recall mode: grow extra confident joins on top of the backbone
      // (EMS).
      EmsOptions ems;
      ems.tau = options.tau;
      result.recall_edges = SolveEmsGreedy(graph, result.backbone_edges, ems);
    }
  }

  std::vector<int> all_edges = result.backbone_edges;
  all_edges.insert(all_edges.end(), result.recall_edges.begin(),
                   result.recall_edges.end());
  std::sort(all_edges.begin(), all_edges.end());
  result.model = EdgesToModel(graph, all_edges);
  result.timing.global_predict = global_timer.Seconds();
}

namespace {

// A finished healthy run as the solve memo and an IncrementalState keep it.
std::shared_ptr<const PredictCache::SolveEntry> ToSolveEntry(
    const AutoBiResult& result) {
  auto entry = std::make_shared<PredictCache::SolveEntry>();
  entry->model = result.model;
  entry->graph = result.graph;
  entry->backbone_edges = result.backbone_edges;
  entry->recall_edges = result.recall_edges;
  entry->solver_stats = result.solver_stats;
  entry->ind_stats = result.ind_stats;
  entry->partition = result.partition;
  return entry;
}

// The global-solve outputs of `entry`, as a memo hit and a warm start
// replay them.
void ReplaySolve(const PredictCache::SolveEntry& entry, AutoBiResult* result) {
  result->model = entry.model;
  result->backbone_edges = entry.backbone_edges;
  result->recall_edges = entry.recall_edges;
  result->solver_stats = entry.solver_stats;
  result->partition = entry.partition;
}

Status ValidateTables(const std::vector<Table>& tables) {
  for (size_t i = 0; i < tables.size(); ++i) {
    if (!tables[i].Validate()) {
      return Status::InvalidInput(
          StrFormat("table %zu ('%s') is malformed (ragged columns)", i,
                    tables[i].name().c_str()));
    }
  }
  return Status::Ok();
}

// The pipeline proper, for every predict. `state` is null for a stateless
// run; otherwise it is reused if its options fingerprint matches and
// replaced if this run is healthy. May throw (pool-propagated worker
// exceptions); only the final commit writes the state, so a throw leaves it
// describing the previous healthy run.
AutoBiResult RunPipeline(const LocalModel& model, const AutoBiOptions& options,
                         const std::vector<Table>& tables,
                         const std::vector<TableSnapshot>& snapshots,
                         const RunContext* ctx, IncrementalState* state) {
  AutoBiResult result;
  result.timing.threads = ResolveThreads(options.threads);
  const uint64_t fp = SolveKeyFingerprint(options, ctx);
  PipelineRun run;
  if (state != nullptr && state->valid && state->options_fp == fp) {
    run.prev = state;
  }
  // A stateful run neither reads nor writes the table shard of the cache:
  // its reuse comes from the state.
  if (state == nullptr) run.cache = options.cache;

  // Stage 1+2: UCC and IND discovery (candidate generation). The top-level
  // thread setting flows into candidate generation unless the caller pinned
  // a stage-specific count.
  CandidateGenOptions cand_options = options.candidates;
  if (cand_options.threads == 0) cand_options.threads = options.threads;
  CandidateSet candidates =
      GenerateCandidates(tables, snapshots, cand_options, ctx, &run);
  result.timing.ucc = candidates.ucc_seconds;
  result.timing.ind = candidates.ind_seconds;
  result.degradation.ucc = candidates.ucc_health;
  result.degradation.ind = candidates.ind_health;
  result.ind_stats = candidates.ind_stats;
  if (state == nullptr) run.key_sets.reset();  // Only a commit needs them.
  if (state != nullptr) {
    result.incremental = run.stats;
    result.incremental.used = run.prev != nullptr;
  }

  // Stage 3: local inference — featurize and score each candidate with the
  // calibrated classifiers (Algorithm 1). Carried-over scores are pure
  // per-candidate functions of unchanged tables, so they stand in exactly.
  bool schema_only = options.mode == AutoBiMode::kSchemaOnly;
  result.graph = BuildJoinGraph(
      tables, candidates.profiles, candidates.candidates, &run.scores, model,
      schema_only, &result.timing.local_inference, options.threads, ctx,
      &result.degradation.local_inference);

  // Stage 4: global prediction. The solve is a deterministic function of
  // the graph and the fingerprinted options, so a structurally identical
  // graph reuses the previous solve wholesale; anything else — including a
  // stop trip, which RunGlobalPredict degrades — runs the solve.
  if (run.prev != nullptr && !(ctx != nullptr && ctx->StopRequested()) &&
      run.prev->solve->graph.StructurallyEqual(result.graph)) {
    ReplaySolve(*run.prev->solve, &result);
    result.incremental.warm_start_used = true;
  } else {
    RunGlobalPredict(options, ctx, &result);
  }

  // Only a healthy run may become the next diff baseline: degraded runs
  // carry partial profiles/candidates that would poison every later reuse.
  if (state != nullptr && !result.degradation.Any()) {
    state->valid = true;
    state->options_fp = fp;
    state->snapshots = snapshots;
    state->profiles = std::move(candidates.profiles);
    state->uccs = std::move(candidates.uccs);
    state->candidates = std::move(candidates.candidates);
    state->probabilities = std::move(run.scores);
    state->key_sets.clear();
    for (auto& [key, set] : run.key_sets->Entries()) {
      state->key_sets.emplace(std::move(key), std::move(set));
    }
    state->solve = ToSolveEntry(result);
  }
  return result;
}

// Predict and PredictIncremental: validation, the entry screen, the
// caller's snapshots or one hash pass, the solve memo, then RunPipeline.
StatusOr<AutoBiResult> PredictWith(const LocalModel& model,
                                   const AutoBiOptions& options,
                                   const std::vector<Table>& tables,
                                   const std::vector<TableSnapshot>* snapshots,
                                   const RunContext* ctx,
                                   IncrementalState* state) {
  Status valid = ValidateTables(tables);
  if (!valid.ok()) return valid;
  if (snapshots != nullptr && snapshots->size() != tables.size()) {
    return Status::InvalidInput(
        StrFormat("%zu snapshots for %zu tables", snapshots->size(),
                  tables.size()));
  }
  // Entry screen: no cached work may stand in for recomputation when the
  // context already tripped (the run owes degraded partial-model semantics
  // from the very first stage) or a table is over the value-probe budget
  // (its metadata-only profile has no cached equivalent). The state is
  // dropped and the run is stateless, table cache and solve memo included.
  if (state != nullptr && ctx != nullptr) {
    bool usable = !ctx->StopRequested();
    for (const Table& t : tables) {
      usable = usable && !OverTableBudget(t, ctx->budgets);
    }
    if (!usable) {
      state->valid = false;
      state = nullptr;
    }
  }
  try {
    // Cross-request solve memo: a byte-identical (tables, options, budgets)
    // submission returns the cached healthy result without running the
    // pipeline. Skipped when the context already tripped (the pipeline then
    // owes the caller its degraded partial-model semantics, not a full
    // cached answer). Stateful runs populate but never consult it: a hit
    // would replace the state's reuse and zero the counters callers rely on.
    PredictCache* cache = options.cache;
    const bool memo_usable =
        cache != nullptr && (ctx == nullptr || !ctx->StopRequested());
    // The snapshots key the solve memo below, and the table cache and the
    // schema diff inside the pipeline. Without the caller's, every cell is
    // hashed once, here.
    Timer hash_timer;
    std::vector<TableSnapshot> hashed;
    if (snapshots == nullptr) {
      hashed = SnapshotTables(tables, options.candidates.threads != 0
                                          ? options.candidates.threads
                                          : options.threads);
      snapshots = &hashed;
    }
    uint64_t solve_key = 0;
    if (memo_usable) {
      std::vector<uint64_t> table_hashes;
      table_hashes.reserve(snapshots->size());
      for (const TableSnapshot& snap : *snapshots) {
        table_hashes.push_back(snap.table_hash);
      }
      solve_key = MixU64(TablesContentHashFromHashes(table_hashes),
                         SolveKeyFingerprint(options, ctx));
      if (state == nullptr) {
        if (std::shared_ptr<const PredictCache::SolveEntry> entry =
                cache->FindSolve(solve_key)) {
          AutoBiResult result;
          result.timing.threads = ResolveThreads(options.threads);
          result.graph = entry->graph;
          result.ind_stats = entry->ind_stats;
          ReplaySolve(*entry, &result);
          return result;
        }
      }
    }
    const double hash_seconds = hash_timer.Seconds();
    AutoBiResult result =
        RunPipeline(model, options, tables, *snapshots, ctx, state);
    result.timing.ucc += hash_seconds;
    if (memo_usable && !result.degradation.Any()) {
      // A healthy stateful run just committed this very entry.
      cache->InsertSolve(solve_key,
                         state != nullptr ? state->solve : ToSolveEntry(result));
    }
    return result;
  } catch (const std::exception& e) {
    // Worker exceptions propagate out of the pool from the lowest-indexed
    // failing iteration; service callers get a Status, never a throw.
    return Status::Internal(
        StrFormat("prediction pipeline failed: %s", e.what()));
  }
}

}  // namespace

StatusOr<AutoBiResult> AutoBi::Predict(
    const std::vector<Table>& tables, const RunContext* ctx,
    const std::vector<TableSnapshot>* snapshots) const {
  return PredictWith(*model_, options_, tables, snapshots, ctx, nullptr);
}

StatusOr<AutoBiResult> AutoBi::PredictIncremental(
    const std::vector<Table>& tables, const RunContext* ctx,
    IncrementalState* state,
    const std::vector<TableSnapshot>* snapshots) const {
  return PredictWith(*model_, options_, tables, snapshots, ctx, state);
}

AutoBiResult AutoBi::Predict(const std::vector<Table>& tables) const {
  StatusOr<AutoBiResult> result = Predict(tables, nullptr);
  // invariant: legacy callers feed trusted (synthetic/test) tables; a
  // Status error here is a harness bug.
  AUTOBI_CHECK_MSG(result.ok(), result.status().ToString().c_str());
  return std::move(result).value();
}

}  // namespace autobi

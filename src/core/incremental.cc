#include "core/incremental.h"

#include <algorithm>
#include <atomic>
#include <numeric>
#include <utility>

#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/candidates.h"
#include "core/graph_builder.h"
#include "fuzz/faultpoints.h"
#include "profile/ind.h"
#include "profile/sketch.h"
#include "table/key_view.h"

namespace autobi {

namespace {

// Remaps a cached pair entry from the previous run's table index space into
// the new one and restores the new space's canonical form: per-candidate
// index relabel, 1:1 reorientation to the lower endpoint (the canonical
// swap of AddIndCandidates, which depends on index order), and a re-sort by
// the (src, dst) dedup key (relabeling can change the within-pair order a
// cold run would produce). Probabilities travel with their candidates —
// they are pure functions of the (unchanged) endpoint tables.
IncrementalPairEntry RemapPairEntry(const IncrementalPairEntry& old_entry,
                                    const std::vector<int>& prev_to_new) {
  struct Item {
    JoinCandidate cand;
    double prob;
  };
  std::vector<Item> items;
  items.reserve(old_entry.candidates.size());
  for (size_t k = 0; k < old_entry.candidates.size(); ++k) {
    JoinCandidate cand = old_entry.candidates[k];
    cand.src.table = prev_to_new[size_t(cand.src.table)];
    cand.dst.table = prev_to_new[size_t(cand.dst.table)];
    if (cand.one_to_one && cand.dst < cand.src) {
      std::swap(cand.src, cand.dst);
      std::swap(cand.left_containment, cand.right_containment);
    }
    items.push_back(Item{std::move(cand), old_entry.probabilities[k]});
  }
  std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
    if (!(a.cand.src == b.cand.src)) return a.cand.src < b.cand.src;
    return a.cand.dst < b.cand.dst;
  });
  IncrementalPairEntry entry;
  entry.candidates.reserve(items.size());
  entry.probabilities.reserve(items.size());
  for (Item& item : items) {
    entry.candidates.push_back(std::move(item.cand));
    entry.probabilities.push_back(item.prob);
  }
  return entry;
}

}  // namespace

AutoBiResult RunIncrementalPipeline(const LocalModel& model,
                                    const AutoBiOptions& options,
                                    const std::vector<Table>& tables,
                                    const RunContext* ctx,
                                    IncrementalState* state) {
  AutoBiResult result;
  result.timing.threads = ResolveThreads(options.threads);
  const int threads = options.candidates.threads != 0
                          ? options.candidates.threads
                          : options.threads;
  const size_t n = tables.size();

  const uint64_t fp = SolveKeyFingerprint(options, ctx);
  const bool delta = state->valid && state->options_fp == fp;
  result.incremental.used = delta;

  // --- Diff stage (folded into the UCC timing bucket, like the content
  // hashing cold candidate generation performs). One hash pass per table;
  // everything after is sized by what actually changed.
  Timer ucc_timer;
  std::vector<TableSnapshot> next(n);
  ParallelFor(
      n, [&](size_t i) { next[i] = SnapshotTable(tables[i]); }, threads);
  SchemaDiff diff;
  if (delta) {
    diff = DiffSchema(state->snapshots, next, tables);
  } else {
    // Cold rebuild through the same code path: every table is new.
    diff.changes.assign(n, TableChange{TableChangeKind::kAdded, -1});
  }

  // --- Stage 1: profiles + UCCs. Unchanged/renamed tables reuse (profiles
  // and UCCs are name-free); appended tables merge the cached profile
  // forward over the delta rows and re-run only the (profile-pruned) UCC
  // lattice; everything else is profiled from scratch.
  std::vector<TableProfile> profiles(n);
  std::vector<std::vector<Ucc>> uccs(n);
  std::atomic<bool> ucc_stopped{false};
  std::atomic<size_t> reprofiled{0};
  std::atomic<size_t> merged{0};
  ParallelFor(
      n,
      [&](size_t i) {
        const TableChange& ch = diff.changes[i];
        if (ch.kind == TableChangeKind::kUnchanged ||
            ch.kind == TableChangeKind::kRenamed) {
          profiles[i] = state->profiles[size_t(ch.prev_index)];
          uccs[i] = state->uccs[size_t(ch.prev_index)];
          return;
        }
        // Item-boundary stop poll, mirroring GenerateCandidates: remaining
        // tables fall back to metadata-only profiles and the stage is
        // marked degraded (the run will not commit state).
        if (ctx != nullptr && ctx->StopRequested()) {
          ucc_stopped.store(true, std::memory_order_relaxed);
          profiles[i] = MetadataOnlyProfile(tables[i]);
          return;
        }
        if (ch.kind == TableChangeKind::kAppended) {
          profiles[i] = MergeAppendedTableProfile(
              state->profiles[size_t(ch.prev_index)], tables[i]);
          // UCCs are not mergeable (one duplicate delta row can kill a key);
          // re-run the lattice, which is profile-pruned and computes value
          // ids only for the columns arity >= 2 candidates touch.
          uccs[i] = DiscoverUccs(tables[i], profiles[i], options.candidates.ucc);
          merged.fetch_add(1, std::memory_order_relaxed);
        } else {
          TableKeyView view(tables[i]);
          profiles[i] = ProfileTable(tables[i], view);
          uccs[i] =
              DiscoverUccs(tables[i], profiles[i], options.candidates.ucc, &view);
          reprofiled.fetch_add(1, std::memory_order_relaxed);
        }
      },
      threads);
  if (ucc_stopped.load(std::memory_order_relaxed)) {
    result.degradation.ucc.MarkDegraded(
        "run stopped during profiling/UCC; remaining tables metadata-only");
  }
  result.incremental.tables_reprofiled =
      reprofiled.load(std::memory_order_relaxed);
  result.incremental.tables_delta_merged =
      merged.load(std::memory_order_relaxed);
  result.timing.ucc = ucc_timer.Seconds();

  // --- Stage 2+3 prelude: plan the unordered pairs. A pair's cached
  // candidates + scores are reusable only when BOTH endpoints are fully
  // unchanged (scores and the metadata fallback read table/column names, so
  // a rename invalidates them even though its profile transferred).
  std::vector<int> prev_to_new(state->snapshots.size(), -1);
  if (delta) {
    for (size_t i = 0; i < n; ++i) {
      if (diff.changes[i].prev_index >= 0) {
        prev_to_new[size_t(diff.changes[i].prev_index)] = int(i);
      }
    }
  }
  struct PairPlan {
    int i;
    int j;
    bool reuse;
  };
  std::vector<PairPlan> plans;
  plans.reserve(n * (n - 1) / 2);
  for (int i = 0; i < int(n); ++i) {
    for (int j = i + 1; j < int(n); ++j) {
      bool reuse = delta &&
                   diff.changes[size_t(i)].kind == TableChangeKind::kUnchanged &&
                   diff.changes[size_t(j)].kind == TableChangeKind::kUnchanged;
      plans.push_back(PairPlan{i, j, reuse});
    }
  }

  // --- Stage 2: IND scans for the pairs that need recomputation, fanned out
  // like DiscoverInds (the (i, j) scan ordered before (j, i), matching the
  // cold ti-major enumeration within each unordered pair).
  Timer ind_timer;
  IndOptions ind_options = options.candidates.ind;
  if (ind_options.threads == 0) ind_options.threads = threads;
  CompositeKeyCache composite_cache;
  // Re-seed referenced key sets for content-unchanged tables (renames keep
  // the cells, and sets are name-free). Rescans of pairs touching a changed
  // table then only rebuild the changed side's sets.
  if (delta) {
    for (const auto& [key, set] : state->key_sets) {
      int new_index = prev_to_new[size_t(key.first)];
      if (new_index < 0) continue;
      TableChangeKind kind = diff.changes[size_t(new_index)].kind;
      if (kind != TableChangeKind::kUnchanged &&
          kind != TableChangeKind::kRenamed) {
        continue;
      }
      composite_cache.Seed(new_index, key.second, set);
    }
  }
  std::vector<size_t> compute;
  for (size_t k = 0; k < plans.size(); ++k) {
    if (!plans[k].reuse) compute.push_back(k);
  }
  struct PairScans {
    IndPairScan fwd;
    IndPairScan rev;
  };
  std::vector<PairScans> scans(compute.size());
  std::atomic<bool> ind_stopped{false};
  ParallelFor(
      compute.size(),
      [&](size_t k) {
        const PairPlan& pl = plans[compute[k]];
        if (ctx != nullptr && ctx->StopRequested()) {
          ind_stopped.store(true, std::memory_order_relaxed);
          return;
        }
        scans[k].fwd = ScanTablePair(tables, profiles, uccs, ind_options,
                                     &composite_cache, pl.i, pl.j);
        scans[k].rev = ScanTablePair(tables, profiles, uccs, ind_options,
                                     &composite_cache, pl.j, pl.i);
      },
      ind_options.threads);
  if (ind_stopped.load(std::memory_order_relaxed)) {
    result.degradation.ind.MarkDegraded(
        "run stopped during IND discovery; remaining pairs skipped");
  }
  // Work counters for the scans this run actually performed (reused pairs
  // contribute nothing — that is the point of the delta path). Pair-local
  // blocking counters land in ind_stats.blocking via ScanTablePair.
  for (const PairScans& sc : scans) {
    result.ind_stats.Add(sc.fwd.stats);
    result.ind_stats.Add(sc.rev.stats);
  }

  // Candidate conversion + metadata fallback, serial per pair in pair
  // order. Candidate (src, dst) keys determine their unordered table pair
  // even after 1:1 canonical swaps, so per-pair dedup maps partition the
  // cold run's global map exactly.
  std::vector<char> probed(n, 1);
  for (size_t i = 0; i < n; ++i) {
    probed[i] = tables[i].num_rows() > 0;
  }
  std::vector<IncrementalPairEntry> entries(plans.size());
  size_t next_scan = 0;
  for (size_t k = 0; k < plans.size(); ++k) {
    const PairPlan& pl = plans[k];
    if (pl.reuse) {
      int pi = diff.changes[size_t(pl.i)].prev_index;
      int pj = diff.changes[size_t(pl.j)].prev_index;
      auto key = std::make_pair(std::min(pi, pj), std::max(pi, pj));
      entries[k] = RemapPairEntry(state->pairs.at(key), prev_to_new);
      ++result.incremental.pairs_reused;
      continue;
    }
    const PairScans& sc = scans[next_scan++];
    CandidateMap dedup;
    AddIndCandidates(sc.fwd.inds, tables, profiles, options.candidates,
                     &composite_cache, &dedup);
    AddIndCandidates(sc.rev.inds, tables, profiles, options.candidates,
                     &composite_cache, &dedup);
    if (options.candidates.metadata_fallback_for_empty_tables) {
      AddMetadataFallbackCandidates(tables, probed, pl.i, pl.j, &dedup);
      AddMetadataFallbackCandidates(tables, probed, pl.j, pl.i, &dedup);
    }
    entries[k].candidates.reserve(dedup.size());
    for (auto& [cand_key, cand] : dedup) {
      (void)cand_key;
      entries[k].candidates.push_back(std::move(cand));
    }
    ++result.incremental.pairs_rescored;
  }

  // Global assembly: merge every pair's (sorted, disjoint-keyed) candidates
  // into the cold run's global dedup order, then apply the same candidate
  // budget / fault-point truncation to the sorted whole.
  struct Origin {
    size_t plan;
    size_t idx;  // Position within entries[plan].candidates.
  };
  std::vector<JoinCandidate> candidates;
  std::vector<Origin> origins;
  {
    size_t total = 0;
    for (const IncrementalPairEntry& e : entries) total += e.candidates.size();
    candidates.reserve(total);
    origins.reserve(total);
    for (size_t k = 0; k < entries.size(); ++k) {
      for (size_t c = 0; c < entries[k].candidates.size(); ++c) {
        candidates.push_back(entries[k].candidates[c]);
        origins.push_back(Origin{k, c});
      }
    }
    std::vector<size_t> order(candidates.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      const JoinCandidate& ca = candidates[a];
      const JoinCandidate& cb = candidates[b];
      if (!(ca.src == cb.src)) return ca.src < cb.src;
      return ca.dst < cb.dst;
    });
    std::vector<JoinCandidate> sorted_cands;
    std::vector<Origin> sorted_origins;
    sorted_cands.reserve(candidates.size());
    sorted_origins.reserve(origins.size());
    for (size_t idx : order) {
      sorted_cands.push_back(std::move(candidates[idx]));
      sorted_origins.push_back(origins[idx]);
    }
    candidates = std::move(sorted_cands);
    origins = std::move(sorted_origins);
  }
  if (ctx != nullptr && ctx->budgets.max_candidate_pairs > 0 &&
      candidates.size() > ctx->budgets.max_candidate_pairs) {
    size_t dropped = candidates.size() - ctx->budgets.max_candidate_pairs;
    candidates.resize(ctx->budgets.max_candidate_pairs);
    origins.resize(candidates.size());
    result.degradation.ind.MarkDegraded(
        StrFormat("candidate-pair budget hit: dropped %zu of %zu pairs",
                  dropped, dropped + candidates.size()));
  }
  if (FaultPoints::Global().Fire("candidates.exhausted") &&
      !candidates.empty()) {
    double keep = FaultPoints::Global().Fraction("candidates.exhausted");
    size_t kept = static_cast<size_t>(keep * double(candidates.size()));
    candidates.resize(kept);
    origins.resize(kept);
    result.degradation.ind.MarkDegraded(
        "injected resource exhaustion in candidate generation");
  }
  result.timing.ind = ind_timer.Seconds();

  // --- Stage 3: local inference. Reused pairs carry their cached scores;
  // only candidates from rescored pairs go through the featurizer. The
  // surviving (candidate, probability) pairs equal cold's truncate-then-
  // score output because scores are pure per-candidate functions.
  Timer li_timer;
  bool schema_only = options.mode == AutoBiMode::kSchemaOnly;
  std::vector<double> probabilities(candidates.size(), 0.0);
  std::vector<size_t> need;
  std::vector<JoinCandidate> to_score;
  for (size_t i = 0; i < candidates.size(); ++i) {
    const IncrementalPairEntry& e = entries[origins[i].plan];
    if (!e.probabilities.empty()) {
      probabilities[i] = e.probabilities[origins[i].idx];
    } else {
      need.push_back(i);
      to_score.push_back(candidates[i]);
    }
  }
  std::vector<double> fresh = ScoreCandidates(
      tables, profiles, to_score, model, schema_only, options.threads, ctx);
  for (size_t k = 0; k < need.size(); ++k) {
    probabilities[need[k]] = fresh[k];
  }
  result.timing.local_inference = li_timer.Seconds();
  result.graph = BuildJoinGraphFromScores(
      n, candidates, probabilities, &result.degradation.local_inference);

  // Backfill the freshly computed scores into their pair entries for the
  // state commit (only a healthy run commits, and a healthy run scored
  // every candidate — nothing truncated or skipped).
  for (size_t i = 0; i < candidates.size(); ++i) {
    IncrementalPairEntry& e = entries[origins[i].plan];
    if (e.probabilities.empty()) {
      e.probabilities.resize(e.candidates.size(), kSkippedCandidateScore);
    }
  }
  for (size_t i = 0; i < candidates.size(); ++i) {
    entries[origins[i].plan].probabilities[origins[i].idx] = probabilities[i];
  }

  // --- Stage 4: global prediction. A structurally identical graph licenses
  // wholesale reuse of the previous solve (the solve is a deterministic
  // function of the graph and the fingerprinted options); anything else —
  // including a stop trip, which cold handles inside RunGlobalPredict —
  // runs the exact cold stage-4 code.
  if (!(ctx != nullptr && ctx->StopRequested()) && delta &&
      state->graph.StructurallyEqual(result.graph)) {
    Timer global_timer;
    result.model = state->model;
    result.backbone_edges = state->backbone_edges;
    result.recall_edges = state->recall_edges;
    result.solver_stats = state->solver_stats;
    result.partition = state->partition;
    result.incremental.warm_start_used = true;
    result.timing.global_predict = global_timer.Seconds();
  } else {
    RunGlobalPredict(options, ctx, &result);
  }

  // --- Commit. Only a healthy run may become the next diff baseline:
  // degraded runs carry partial profiles/candidates that would poison every
  // later reuse. The previous healthy state stays valid as a baseline.
  if (!result.degradation.Any()) {
    state->valid = true;
    state->options_fp = fp;
    state->snapshots = std::move(next);
    state->profiles = std::move(profiles);
    state->uccs = std::move(uccs);
    state->pairs.clear();
    for (size_t k = 0; k < plans.size(); ++k) {
      state->pairs.emplace(std::make_pair(plans[k].i, plans[k].j),
                           std::move(entries[k]));
    }
    state->key_sets.clear();
    for (auto& [key, set] : composite_cache.Entries()) {
      state->key_sets.emplace(std::move(key), std::move(set));
    }
    state->graph = result.graph;
    state->model = result.model;
    state->backbone_edges = result.backbone_edges;
    state->recall_edges = result.recall_edges;
    state->solver_stats = result.solver_stats;
    state->partition = result.partition;
  }
  return result;
}

}  // namespace autobi

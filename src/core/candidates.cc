#include "core/candidates.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/graph_builder.h"
#include "core/incremental.h"
#include "core/predict_cache.h"
#include "fuzz/faultpoints.h"
#include "profile/sketch.h"
#include "table/key_view.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace autobi {

namespace {

double MeanDistinctRatio(const TableProfile& profile,
                         const std::vector<int>& columns) {
  double sum = 0.0;
  for (int c : columns) sum += profile.columns[size_t(c)].distinct_ratio;
  return sum / static_cast<double>(columns.size());
}

}  // namespace

uint64_t UccOptionsFingerprint(const UccOptions& ucc) {
  uint64_t h = SplitMix64(ucc.max_arity);
  h = SplitMix64(h ^ ucc.max_candidates);
  uint64_t bits;
  static_assert(sizeof(bits) == sizeof(ucc.min_distinct_ratio));
  std::memcpy(&bits, &ucc.min_distinct_ratio, sizeof(bits));
  return SplitMix64(h ^ bits);
}

bool OverTableBudget(const Table& table, const RunContext::Budgets& budgets) {
  if (budgets.max_rows_per_table > 0 &&
      table.num_rows() > budgets.max_rows_per_table) {
    return true;
  }
  if (budgets.max_cells_per_table > 0 &&
      table.num_rows() * table.num_columns() > budgets.max_cells_per_table) {
    return true;
  }
  return false;
}

void AddIndCandidates(const std::vector<Ind>& inds,
                      const std::vector<Table>& tables,
                      const std::vector<TableProfile>& profiles,
                      const CandidateGenOptions& /*options*/,
                      CompositeKeyCache* composite_cache,
                      CandidateMap* dedup) {
  for (const Ind& ind : inds) {
    JoinCandidate cand;
    cand.src = ind.dependent;
    cand.dst = ind.referenced;
    cand.left_containment = ind.containment;
    // Reverse containment: cheap via profiles for unary, exact probe for
    // composite INDs (which are rare).
    if (!ind.IsComposite()) {
      cand.right_containment =
          Containment(profiles[size_t(cand.dst.table)]
                          .columns[size_t(cand.dst.columns[0])],
                      profiles[size_t(cand.src.table)]
                          .columns[size_t(cand.src.columns[0])]);
    } else {
      std::shared_ptr<const CompositeKeyCache::HashSet> referenced =
          composite_cache->Get(tables[size_t(cand.src.table)], cand.src.table,
                               cand.src.columns);
      cand.right_containment = CompositeContainment(
          tables[size_t(cand.dst.table)], cand.dst.columns, *referenced);
    }

    double src_distinct =
        MeanDistinctRatio(profiles[size_t(cand.src.table)], cand.src.columns);
    double dst_distinct =
        MeanDistinctRatio(profiles[size_t(cand.dst.table)], cand.dst.columns);
    cand.one_to_one =
        src_distinct >= kOneToOneDistinctRatio &&
        dst_distinct >= kOneToOneDistinctRatio &&
        std::min(cand.left_containment, cand.right_containment) >=
            kOneToOneMinContainment;

    // Canonical orientation for 1:1 candidates: both IND directions fold
    // into one candidate keyed from the lower endpoint.
    if (cand.one_to_one && cand.dst < cand.src) {
      std::swap(cand.src, cand.dst);
      std::swap(cand.left_containment, cand.right_containment);
    }
    auto key = std::make_pair(cand.src, cand.dst);
    auto it = dedup->find(key);
    if (it == dedup->end()) {
      dedup->emplace(key, cand);
    } else if (cand.one_to_one && !it->second.one_to_one) {
      it->second = cand;  // Prefer the 1:1 interpretation when detected.
    }
  }
}

void AddMetadataFallbackCandidates(const std::vector<Table>& tables,
                                   const std::vector<char>& probed, int ti,
                                   int tj, CandidateMap* dedup) {
  if (ti == tj) return;
  if (probed[size_t(ti)] && probed[size_t(tj)]) return;
  for (int a = 0; a < int(tables[size_t(ti)].num_columns()); ++a) {
    const std::string& src = tables[size_t(ti)].column(size_t(a)).name();
    std::string src_norm = NormalizeIdentifier(src);
    for (int b = 0; b < int(tables[size_t(tj)].num_columns()); ++b) {
      const std::string& dst = tables[size_t(tj)].column(size_t(b)).name();
      std::string aug = tables[size_t(tj)].name() + " " + dst;
      bool name_hit =
          EditSimilarity(src_norm, NormalizeIdentifier(dst)) >= 0.5 ||
          TokenContainment(TokenizeIdentifier(src),
                           TokenizeIdentifier(aug)) >= 0.99;
      bool key_shaped = b == 0 && (EndsWith(ToLower(src_norm), "id") ||
                                   EndsWith(ToLower(src_norm), "key") ||
                                   EndsWith(ToLower(src_norm), "code"));
      if (!name_hit && !key_shaped) continue;
      JoinCandidate cand;
      cand.src = ColumnRef{ti, {a}};
      cand.dst = ColumnRef{tj, {b}};
      auto key = std::make_pair(cand.src, cand.dst);
      if (!dedup->count(key)) dedup->emplace(key, cand);
    }
  }
}

CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const CandidateGenOptions& options,
                                const RunContext* ctx) {
  PipelineRun run;  // No cache, no state: nothing reads table hashes.
  return GenerateCandidates(tables, {}, options, ctx, &run);
}

CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const std::vector<TableSnapshot>& snapshots,
                                const CandidateGenOptions& options,
                                const RunContext* ctx, PipelineRun* run) {
  CandidateSet out;
  const size_t n = tables.size();
  const IncrementalState* prev = run->prev;
  AUTOBI_CHECK(snapshots.size() == n ||
               (run->cache == nullptr && prev == nullptr));

  // Admission under RunContext table budgets: over-budget tables are
  // excluded from value probing up front (deterministically — counted, not
  // timed) and handled exactly like empty DDL tables downstream.
  std::vector<char> admitted(n, 1);
  if (ctx != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (OverTableBudget(tables[i], ctx->budgets)) {
        admitted[i] = 0;
        out.ucc_health.MarkDegraded(StrFormat(
            "table '%s' over row/cell budget; metadata-only profile",
            tables[i].name().c_str()));
      }
    }
  }

  // What the state proves reusable; without one every table is kAdded.
  Timer ucc_timer;
  std::vector<TableChange> changes(n);
  std::vector<int> prev_to_new;
  size_t num_unchanged = 0;
  if (prev != nullptr) {
    changes = DiffSchema(prev->snapshots, snapshots, tables);
    prev_to_new.assign(prev->snapshots.size(), -1);
    for (size_t i = 0; i < n; ++i) {
      if (changes[i].prev_index >= 0) {
        prev_to_new[size_t(changes[i].prev_index)] = int(i);
      }
      num_unchanged += changes[i].kind == TableChangeKind::kUnchanged;
    }
  }
  auto is = [&](size_t i, TableChangeKind kind) {
    return changes[i].kind == kind;
  };
  auto same_cells = [&](size_t i) {
    return is(i, TableChangeKind::kUnchanged) ||
           is(i, TableChangeKind::kRenamed);
  };
  auto from_state = [&](size_t i) {  // Rule 2 or 3 below applies.
    return same_cells(i) || is(i, TableChangeKind::kAppended);
  };

  // UCC stage (includes profiling, which UCC pruning needs first). Each
  // table's profile + UCC lattice search is independent, so tables fan out
  // across the pool; slot-per-table writes keep the output order fixed.
  // Where a table's profile + UCCs come from is the first rule that applies:
  //   1. over the row/cell budget: metadata-only profile;
  //   2. unchanged or renamed against the state: reuse (both are name-free);
  //   3. appended: merge the state's profile forward over the new rows and
  //      re-run the (profile-pruned) UCC lattice;
  //   4. in the cross-request PredictCache (run->cache): reuse;
  //   5. otherwise: profile.
  // Every source is byte-identical to profiling the table afresh.
  out.profiles.resize(n);
  out.uccs.resize(n);
  PredictCache* cache = run->cache;
  const uint64_t ucc_fp = UccOptionsFingerprint(options.ucc);
  std::vector<uint64_t> table_keys(n, 0);
  // Cache lookups run serially in index order, so hit/miss counters stay
  // deterministic.
  std::vector<std::shared_ptr<const PredictCache::TableEntry>> cached(n);
  if (cache != nullptr) {
    for (size_t i = 0; i < n; ++i) {
      if (!admitted[i] || from_state(i)) continue;
      table_keys[i] = SplitMix64(snapshots[i].table_hash ^ ucc_fp);
      cached[i] = cache->FindTable(table_keys[i]);
    }
  }
  std::atomic<bool> ucc_stopped{false};
  std::vector<char> fresh(n, 0);
  std::vector<char> merged(n, 0);
  const std::vector<size_t> order = LargestFirst(n, [&](size_t i) {
    return tables[i].num_rows() * tables[i].num_columns();
  });
  ParallelFor(
      n,
      [&](size_t k) {
        const size_t i = order[k];
        const int prev_index = changes[i].prev_index;
        if (!admitted[i]) {
          out.profiles[i] = MetadataOnlyProfile(tables[i]);
          return;
        }
        if (same_cells(i)) {
          out.profiles[i] = prev->profiles[size_t(prev_index)];
          out.uccs[i] = prev->uccs[size_t(prev_index)];
          return;
        }
        if (cached[i] != nullptr) {
          out.profiles[i] = cached[i]->profile;
          out.uccs[i] = cached[i]->uccs;
          return;
        }
        // Item-boundary stop poll: once the deadline passes or the run is
        // cancelled, remaining tables fall back to metadata-only profiles.
        if (ctx != nullptr && ctx->StopRequested()) {
          ucc_stopped.store(true, std::memory_order_relaxed);
          out.profiles[i] = MetadataOnlyProfile(tables[i]);
          return;
        }
        if (is(i, TableChangeKind::kAppended)) {
          out.profiles[i] = MergeAppendedTableProfile(
              prev->profiles[size_t(prev_index)], tables[i]);
          // UCCs are not mergeable (one duplicate appended row can kill a
          // key); the lattice computes value ids only for the columns its
          // arity >= 2 candidates touch.
          out.uccs[i] = DiscoverUccs(tables[i], out.profiles[i], options.ucc);
          merged[i] = 1;
          return;
        }
        // One key view per table feeds both profiling and the UCC lattice
        // scan (arity >= 2 candidates), so canonical keys are rendered and
        // hashed exactly once per cell.
        TableKeyView view(tables[i]);
        out.profiles[i] = ProfileTable(tables[i], view);
        out.uccs[i] =
            DiscoverUccs(tables[i], out.profiles[i], options.ucc, &view);
        fresh[i] = 1;
      },
      options.threads);
  // Publish freshly profiled tables to the cache, serially in index order.
  for (size_t i = 0; cache != nullptr && i < n; ++i) {
    if (!fresh[i]) continue;
    auto entry = std::make_shared<PredictCache::TableEntry>();
    entry->profile = out.profiles[i];
    entry->uccs = out.uccs[i];
    cache->InsertTable(table_keys[i], std::move(entry));
  }
  if (ucc_stopped.load(std::memory_order_relaxed)) {
    out.ucc_health.MarkDegraded(
        "run stopped during profiling/UCC; remaining tables metadata-only");
  }
  run->stats.tables_reprofiled =
      size_t(std::count(fresh.begin(), fresh.end(), 1));
  run->stats.tables_delta_merged =
      size_t(std::count(merged.begin(), merged.end(), 1));
  out.ucc_seconds = ucc_timer.Seconds();

  // IND stage. The composite-key cache is shared between discovery and the
  // reverse-containment probes below, so each referenced tuple-hash set is
  // built at most once per (table, key-columns) for the whole stage; sets of
  // tables whose cells the state already holds are seeded from it.
  Timer ind_timer;
  IndOptions ind_options = options.ind;
  if (ind_options.threads == 0) ind_options.threads = options.threads;
  CompositeKeyCache& composite_cache = *run->key_sets;
  if (prev != nullptr) {
    for (const auto& [key, set] : prev->key_sets) {
      int t = prev_to_new[size_t(key.first)];
      if (t >= 0 && same_cells(size_t(t))) {
        composite_cache.Seed(t, key.second, set);
      }
    }
  }
  // A pair of two unchanged tables reuses its candidates and scores; every
  // other pair is rescanned.
  auto reused = [&](int ti, int tj) {
    return is(size_t(ti), TableChangeKind::kUnchanged) &&
           is(size_t(tj), TableChangeKind::kUnchanged);
  };
  run->stats.pairs_reused = num_unchanged * (num_unchanged - 1) / 2;
  run->stats.pairs_rescored = n * (n - 1) / 2 - run->stats.pairs_reused;
  // DiscoverInds scans exactly the ordered pairs `reused` rejects: those with
  // at least one changed table.
  std::vector<char> rescan(n);
  for (size_t i = 0; i < n; ++i) {
    rescan[i] = !is(i, TableChangeKind::kUnchanged);
  }
  std::vector<Ind> inds =
      DiscoverInds(tables, out.profiles, out.uccs, ind_options,
                   &out.ind_stats, &composite_cache, ctx, &rescan);

  // The reused pairs' candidates, relabeled into this call's table order
  // (1:1 candidates re-oriented to the lower endpoint, the canonical form
  // AddIndCandidates gives them), with their scores.
  CandidateMap dedup;
  std::map<std::pair<ColumnRef, ColumnRef>, double> carried;
  for (size_t k = 0; prev != nullptr && k < prev->candidates.size(); ++k) {
    JoinCandidate cand = prev->candidates[k];
    cand.src.table = prev_to_new[size_t(cand.src.table)];
    cand.dst.table = prev_to_new[size_t(cand.dst.table)];
    if (cand.src.table < 0 || cand.dst.table < 0 ||
        !reused(cand.src.table, cand.dst.table)) {
      continue;
    }
    if (cand.one_to_one && cand.dst < cand.src) {
      std::swap(cand.src, cand.dst);
      std::swap(cand.left_containment, cand.right_containment);
    }
    auto key = std::make_pair(cand.src, cand.dst);
    carried.emplace(key, prev->probabilities[k]);
    dedup.emplace(std::move(key), std::move(cand));
  }
  if (ctx != nullptr && ctx->StopRequested()) {
    // Conservative: the stop may have tripped after the last pair finished,
    // but once it is set any remaining per-pair scans returned empty.
    out.ind_health.MarkDegraded(
        "run stopped during IND discovery; remaining pairs skipped");
  }

  // Convert INDs to deduplicated candidates. Keys determine their table
  // pair, so they never collide with the reused pairs' candidates.
  AddIndCandidates(inds, tables, out.profiles, options, &composite_cache,
                   &dedup);
  // Metadata fallback: for rescanned table pairs where a side could not be
  // value probed (no rows in DDL-only input, or excluded by a RunContext
  // table budget), screen candidate pairs by name instead so the
  // schema-only classifier can score them.
  if (options.metadata_fallback_for_empty_tables) {
    std::vector<char> probed(n, 1);
    for (size_t i = 0; i < n; ++i) {
      probed[i] = admitted[i] && tables[i].num_rows() > 0;
    }
    for (int ti = 0; ti < int(n); ++ti) {
      for (int tj = 0; tj < int(n); ++tj) {
        if (!reused(ti, tj)) {
          AddMetadataFallbackCandidates(tables, probed, ti, tj, &dedup);
        }
      }
    }
  }

  out.candidates.reserve(dedup.size());
  run->scores.reserve(dedup.size());
  for (auto& [key, cand] : dedup) {
    auto it = carried.find(key);
    run->scores.push_back(it != carried.end() ? it->second
                                              : kSkippedCandidateScore);
    out.candidates.push_back(std::move(cand));
  }
  // Candidate-pair budget: deterministic truncation of the sorted dedup
  // order (std::map iteration order), so the same inputs always keep the
  // same prefix at any thread count.
  if (ctx != nullptr && ctx->budgets.max_candidate_pairs > 0 &&
      out.candidates.size() > ctx->budgets.max_candidate_pairs) {
    size_t dropped = out.candidates.size() - ctx->budgets.max_candidate_pairs;
    out.candidates.resize(ctx->budgets.max_candidate_pairs);
    out.ind_health.MarkDegraded(StrFormat(
        "candidate-pair budget hit: dropped %zu of %zu pairs", dropped,
        dropped + out.candidates.size()));
  }
  // Fault point: simulated resource exhaustion of the candidate stage, for
  // the end-to-end fault-injection campaign. Drops a deterministic suffix
  // and marks the stage degraded exactly like a real budget trip.
  if (FaultPoints::Global().Fire("candidates.exhausted") &&
      !out.candidates.empty()) {
    double keep = FaultPoints::Global().Fraction("candidates.exhausted");
    size_t kept = static_cast<size_t>(keep * double(out.candidates.size()));
    out.candidates.resize(kept);
    out.ind_health.MarkDegraded(
        "injected resource exhaustion in candidate generation");
  }
  run->scores.resize(out.candidates.size());
  // Fold in the sets built by reverse-containment probing above.
  out.ind_stats.composite_sets_built = composite_cache.builds();
  out.ind_seconds = ind_timer.Seconds();
  return out;
}

}  // namespace autobi

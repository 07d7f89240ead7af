#include "profile/ind.h"

#include <iterator>
#include <memory>
#include <string>
#include <utility>

#include "common/parallel.h"
#include "profile/sketch.h"
#include "table/key_view.h"

namespace autobi {

namespace {

// Cheap numeric-range disjointness screen: containment must be ~0 when the
// dependent's range lies entirely outside the referenced range.
bool RangesDisjoint(const ColumnProfile& a, const ColumnProfile& b) {
  if (!a.is_numeric || !b.is_numeric) return false;
  if (a.non_null_count == 0 || b.non_null_count == 0) return false;
  return a.max_value < b.min_value || b.max_value < a.min_value;
}

}  // namespace

IndPairScan ScanTablePair(const std::vector<Table>& tables,
                          const std::vector<TableProfile>& profiles,
                          const std::vector<std::vector<Ucc>>& uccs,
                          const IndOptions& options, CompositeKeyCache* cache,
                          int ti, int tj, const PairBlocking* blocking) {
  IndPairScan out;
  std::vector<Ind>& result = out.inds;
  IndStats& stats = out.stats;
  stats.pairs_scanned = 1;
  const TableProfile& pi = profiles[ti];
  const TableProfile& pj = profiles[tj];
  const size_t na = pi.columns.size();
  const size_t nb = pj.columns.size();
  // The exhaustive loop structure below is kept and non-admitted column
  // pairs are skipped in place, so the iteration order of everything that
  // still runs is exactly the oracle's.
  std::vector<char> admit;  // (a * nb + b) -> admitted; empty = admit all.
  if (blocking != nullptr) {
    admit.assign(na * nb, 0);
    for (const auto& [a, b] : blocking->admitted) {
      admit[static_cast<size_t>(a) * nb + static_cast<size_t>(b)] = 1;
    }
  }
  auto admitted = [&](int a, int b) {
    return admit.empty() ||
           admit[static_cast<size_t>(a) * nb + static_cast<size_t>(b)] != 0;
  };
  // --- Unary INDs.
  for (int a = 0; a < static_cast<int>(na); ++a) {
    const ColumnProfile& pa = pi.columns[a];
    if (pa.num_distinct < kMinDependentDistinct) continue;
    for (int b = 0; b < static_cast<int>(nb); ++b) {
      if (!admitted(a, b)) continue;
      const ColumnProfile& pb = pj.columns[b];
      if (pb.non_null_count == 0) continue;
      if (pb.distinct_ratio < options.min_referenced_distinct_ratio) {
        continue;
      }
      if (RangesDisjoint(pa, pb)) {
        ++stats.unary_range_screened;
        continue;
      }
      ++stats.unary_exact_checks;
      double c = Containment(pa, pb);
      if (c >= options.min_containment) {
        Ind ind;
        ind.dependent = ColumnRef{ti, {a}};
        ind.referenced = ColumnRef{tj, {b}};
        ind.containment = c;
        result.push_back(std::move(ind));
      }
    }
  }
  // --- Composite INDs: probe composite UCCs of the referenced table.
  if (options.max_arity < 2) return out;
  // Dependent-side key views, built lazily on first probe of a column and
  // shared across every probe/UCC of this pair.
  std::vector<std::unique_ptr<ColumnKeyView>> dep_views(pi.columns.size());
  auto dep_view = [&](int a) -> const ColumnKeyView& {
    auto& slot = dep_views[static_cast<size_t>(a)];
    if (slot == nullptr) {
      slot = std::make_unique<ColumnKeyView>(
          tables[ti].column(static_cast<size_t>(a)));
    }
    return *slot;
  };
  size_t probes = 0;
  bool budget_exhausted = false;
  double component_threshold = options.min_containment * 0.8;
  for (const Ucc& key : uccs[tj]) {
    if (budget_exhausted) break;
    size_t arity = key.columns.size();
    if (arity < 2 || arity > options.max_arity) continue;
    // For each UCC component, collect plausible source columns by
    // per-column containment pre-screen.
    std::vector<std::vector<int>> component_candidates(arity);
    bool viable = true;
    for (size_t k = 0; k < arity; ++k) {
      const ColumnProfile& pb = pj.columns[key.columns[k]];
      for (int a = 0; a < static_cast<int>(na); ++a) {
        const ColumnProfile& pa = pi.columns[a];
        if (pa.num_distinct == 0) continue;
        // Blocking admission is threshold-agnostic (shared values, not a
        // score), so the same admit matrix serves the relaxed
        // component_threshold here.
        if (!admitted(a, key.columns[k])) continue;
        if (RangesDisjoint(pa, pb)) continue;
        if (Containment(pa, pb) >= component_threshold) {
          component_candidates[k].push_back(a);
        }
      }
      if (component_candidates[k].empty()) {
        viable = false;
        break;
      }
    }
    if (!viable) continue;
    // Referenced tuple-hash set: built once per (table, UCC) across ALL
    // dependent tables via the shared cache, not once per probe.
    std::shared_ptr<const CompositeKeyCache::HashSet> referenced;
    // Enumerate assignments (distinct source columns per component).
    std::vector<int> assign(arity, -1);
    std::vector<size_t> idx(arity, 0);
    size_t level = 0;
    while (true) {
      if (idx[level] >= component_candidates[level].size()) {
        if (level == 0) break;
        idx[level] = 0;
        --level;
        ++idx[level];
        continue;
      }
      int cand = component_candidates[level][idx[level]];
      bool dup = false;
      for (size_t k = 0; k < level; ++k) {
        if (assign[k] == cand) {
          dup = true;
          break;
        }
      }
      if (dup) {
        ++idx[level];
        continue;
      }
      assign[level] = cand;
      if (level + 1 == arity) {
        if (++probes > options.max_composite_probes) {
          // Budget exhausted: stop ALL composite probing for this pair (not
          // just this UCC) and record the truncation.
          budget_exhausted = true;
          ++stats.composite_budget_truncations;
          break;
        }
        ++stats.composite_probes;
        if (referenced == nullptr) {
          referenced = cache->Get(tables[tj], tj, key.columns);
        }
        std::vector<int> src(assign.begin(), assign.end());
        std::vector<const ColumnKeyView*> src_views;
        src_views.reserve(src.size());
        for (int a2 : src) src_views.push_back(&dep_view(a2));
        double c = CompositeContainment(src_views, tables[ti].num_rows(),
                                        *referenced);
        if (c >= options.min_containment) {
          Ind ind;
          ind.dependent = ColumnRef{ti, src};
          ind.referenced = ColumnRef{tj, key.columns};
          ind.containment = c;
          result.push_back(std::move(ind));
        }
        ++idx[level];
      } else {
        ++level;
      }
    }
  }
  return out;
}

std::shared_ptr<const CompositeKeyCache::HashSet> CompositeKeyCache::Get(
    const Table& table, int table_index, const std::vector<int>& columns) {
  std::promise<std::shared_ptr<const HashSet>> promise;
  std::shared_future<std::shared_ptr<const HashSet>> future;
  bool builder = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    Key key{table_index, columns};
    auto it = entries_.find(key);
    if (it != entries_.end()) {
      future = it->second;
    } else {
      future = promise.get_future().share();
      entries_.emplace(std::move(key), future);
      builder = true;
    }
  }
  if (builder) {
    auto set = std::make_shared<const HashSet>(
        BuildCompositeKeySet(table, columns));
    builds_.fetch_add(1, std::memory_order_relaxed);
    promise.set_value(set);
    return set;
  }
  return future.get();
}

void CompositeKeyCache::Seed(int table_index, const std::vector<int>& columns,
                             std::shared_ptr<const HashSet> set) {
  std::promise<std::shared_ptr<const HashSet>> promise;
  promise.set_value(std::move(set));
  std::lock_guard<std::mutex> lock(mu_);
  // emplace keeps any existing entry, so seeding never clobbers a build.
  entries_.emplace(Key{table_index, columns}, promise.get_future().share());
}

std::vector<std::pair<CompositeKeyCache::Key,
                      std::shared_ptr<const CompositeKeyCache::HashSet>>>
CompositeKeyCache::Entries() {
  std::vector<std::pair<Key, std::shared_ptr<const HashSet>>> out;
  std::lock_guard<std::mutex> lock(mu_);
  out.reserve(entries_.size());
  for (const auto& [key, future] : entries_) {
    if (future.wait_for(std::chrono::seconds(0)) ==
        std::future_status::ready) {
      out.emplace_back(key, future.get());
    }
  }
  return out;
}

namespace {

// Materializes key views for `cols` of `table` into `storage` and returns
// pointer spans for the streaming tuple-hash kernels.
std::vector<const ColumnKeyView*> BuildViews(
    const Table& table, const std::vector<int>& cols,
    std::vector<ColumnKeyView>* storage) {
  storage->clear();
  storage->reserve(cols.size());
  for (int c : cols) {
    storage->emplace_back(table.column(static_cast<size_t>(c)));
  }
  std::vector<const ColumnKeyView*> views;
  views.reserve(storage->size());
  for (const ColumnKeyView& v : *storage) views.push_back(&v);
  return views;
}

}  // namespace

CompositeKeyCache::HashSet BuildCompositeKeySet(
    const Table& table, const std::vector<int>& cols) {
  std::vector<ColumnKeyView> storage;
  std::vector<const ColumnKeyView*> views = BuildViews(table, cols, &storage);
  CompositeKeyCache::HashSet referenced;
  referenced.reserve(table.num_rows() * 2);
  uint64_t h = 0;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    if (TupleHashFromViews(views, r, &h)) referenced.insert(h);
  }
  return referenced;
}

double CompositeContainment(const std::vector<const ColumnKeyView*>& cols,
                            size_t rows,
                            const CompositeKeyCache::HashSet& referenced) {
  // Row-weighted, matching the unary Containment semantics.
  size_t total = 0;
  size_t hits = 0;
  uint64_t h = 0;
  for (size_t r = 0; r < rows; ++r) {
    if (!TupleHashFromViews(cols, r, &h)) continue;
    ++total;
    if (referenced.count(h)) ++hits;
  }
  if (total == 0) return 0.0;
  return static_cast<double>(hits) / static_cast<double>(total);
}

double CompositeContainment(const Table& ta, const std::vector<int>& ca,
                            const CompositeKeyCache::HashSet& referenced) {
  std::vector<ColumnKeyView> storage;
  std::vector<const ColumnKeyView*> views = BuildViews(ta, ca, &storage);
  return CompositeContainment(views, ta.num_rows(), referenced);
}

double CompositeContainment(const Table& ta, const std::vector<int>& ca,
                            const Table& tb, const std::vector<int>& cb) {
  return CompositeContainment(ta, ca, BuildCompositeKeySet(tb, cb));
}

std::vector<Ind> DiscoverInds(const std::vector<Table>& tables,
                              const std::vector<TableProfile>& profiles,
                              const std::vector<std::vector<Ucc>>& uccs,
                              const IndOptions& options, IndStats* stats,
                              CompositeKeyCache* cache, const RunContext* ctx,
                              const std::vector<char>* rescan) {
  // Enumerate ordered pairs in the serial scan order, fan the per-pair scans
  // out, then concatenate per-pair results in that same order: the combined
  // IND list is byte-identical at any thread count. With blocking enabled
  // the pair list shrinks to the plan's ACTIVE pairs — std::map iteration
  // over (ti, tj) keys is the serial ti-major order restricted to them, so
  // the concatenation order is unchanged.
  CompositeKeyCache local_cache;
  if (cache == nullptr) cache = &local_cache;
  size_t builds_before = cache->builds();
  int n = static_cast<int>(tables.size());
  IndStats total;
  std::vector<std::pair<int, int>> pairs;
  std::vector<const PairBlocking*> pair_blocking;
  std::map<std::pair<int, int>, PairBlocking> plan;
  if (options.blocking.enabled) {
    plan = BuildBlockingPlan(profiles, options.blocking, &total.blocking,
                             options.threads, ctx, rescan);
    pairs.reserve(plan.size());
    pair_blocking.reserve(plan.size());
    for (const auto& [key, admission] : plan) {
      pairs.push_back(key);
      pair_blocking.push_back(&admission);
    }
  } else {
    auto flagged = [&](int t) {
      return rescan == nullptr || (*rescan)[static_cast<size_t>(t)] != 0;
    };
    for (int ti = 0; ti < n; ++ti) {
      for (int tj = 0; tj < n; ++tj) {
        if (ti != tj && (flagged(ti) || flagged(tj))) {
          pairs.emplace_back(ti, tj);
        }
      }
    }
    pair_blocking.assign(pairs.size(), nullptr);
  }
  std::vector<IndPairScan> per_pair = ParallelMap(
      pairs.size(),
      [&](size_t p) {
        // Item-boundary stop poll: once the deadline passes or the run is
        // cancelled, remaining pairs contribute nothing (the caller marks
        // the stage degraded). A null/untripped context changes nothing.
        if (ctx != nullptr && ctx->StopRequested()) return IndPairScan{};
        return ScanTablePair(tables, profiles, uccs, options, cache,
                             pairs[p].first, pairs[p].second,
                             pair_blocking[p]);
      },
      options.threads);
  std::vector<Ind> result;
  for (IndPairScan& part : per_pair) {
    total.Add(part.stats);
    result.insert(result.end(), std::make_move_iterator(part.inds.begin()),
                  std::make_move_iterator(part.inds.end()));
  }
  // Attribute exactly the sets built during this run (the cache may be
  // shared across calls).
  total.composite_sets_built = cache->builds() - builds_before;
  if (stats != nullptr) *stats = total;
  return result;
}

}  // namespace autobi

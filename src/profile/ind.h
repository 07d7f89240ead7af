#ifndef AUTOBI_PROFILE_IND_H_
#define AUTOBI_PROFILE_IND_H_

#include <atomic>
#include <cstdint>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <unordered_set>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "profile/blocking.h"
#include "profile/column_profile.h"
#include "profile/ucc.h"
#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Approximate inclusion-dependency (IND) discovery. INDs are the candidate
// generation step of Algorithm 1 (Line 3): every column pair (C_i, C_j) with
// containment(C_i in C_j) above a threshold becomes a candidate join edge.

struct IndOptions {
  // Minimum fraction of the dependent (FK) side's distinct values contained
  // in the referenced (PK) side. Real BI joins are often not perfectly
  // inclusive, so this is < 1 by default.
  double min_containment = 0.85;
  // Dependent side must have at least this many distinct values (tiny
  // domains overlap by accident).
  size_t min_distinct = 1;
  // Referenced side must have distinct ratio at least this (a join target
  // should be key-like).
  double min_referenced_distinct_ratio = 0.9;
  // Also search composite (multi-column) INDs against composite UCCs of the
  // referenced table, up to this arity. 1 disables composite search.
  size_t max_arity = 2;
  // Composite probes are capped per table pair. When the cap is hit, ALL
  // remaining composite probing for the pair stops and the truncation is
  // recorded in IndStats::composite_budget_truncations (no silent caps).
  size_t max_composite_probes = 64;
  // Worker threads for the pairwise scan (ResolveThreads semantics: 0 = use
  // AUTOBI_THREADS / hardware, 1 = serial). Output is identical regardless.
  int threads = 0;

  // Inverted-index candidate blocking (profile/blocking.h). Replaced the
  // PR 5 KMV pre-screen in PR 9: one pruning mechanism, one set of
  // counters, and — unlike the sketch screen, which still visited every
  // column pair — blocking skips entire table pairs, which is what makes
  // lake-scale discovery near-linear. blocking.enabled = false restores the
  // exhaustive all-pairs oracle.
  BlockingOptions blocking;
};

// Observability counters for one DiscoverInds run (summed over table pairs
// in deterministic pair order; thread-count invariant).
struct IndStats {
  size_t pairs_scanned = 0;
  // Unary screens/evaluations.
  size_t unary_range_screened = 0;  // Skipped by numeric-range disjointness.
  size_t unary_exact_checks = 0;    // Exact sorted-merge containments run.
  // Composite search.
  size_t composite_probes = 0;      // Exact composite containments run.
  size_t composite_sets_built = 0;  // Referenced tuple-hash sets constructed.
  size_t composite_budget_truncations = 0;  // Pairs that hit the probe cap.
  // The counters of DiscoverInds' blocking plan over the pairs in scope
  // (zero with blocking off); column_pairs_pruned counts the unary column
  // pairs blocking skipped.
  BlockingStats blocking;

  void Add(const IndStats& o) {
    pairs_scanned += o.pairs_scanned;
    unary_range_screened += o.unary_range_screened;
    unary_exact_checks += o.unary_exact_checks;
    composite_probes += o.composite_probes;
    composite_sets_built += o.composite_sets_built;
    composite_budget_truncations += o.composite_budget_truncations;
    blocking.Add(o.blocking);
  }
};

// Thread-safe cache of referenced-side composite tuple-hash sets, keyed by
// (table index, key columns). Under DiscoverInds' per-pair ParallelMap many
// dependent tables probe the same referenced UCC; the cache guarantees each
// set is built exactly once (first requester builds, concurrent requesters
// block on a shared future), so `builds()` == number of distinct keys ever
// requested, at any thread count.
class CompositeKeyCache {
 public:
  using HashSet = std::unordered_set<uint64_t>;
  using Key = std::pair<int, std::vector<int>>;

  // Returns the tuple-hash set of `columns` over `table` (which must be the
  // table at `table_index` of the case), building it on first request.
  std::shared_ptr<const HashSet> Get(const Table& table, int table_index,
                                     const std::vector<int>& columns);

  // Pre-seeds an already-built set (kept if the key is already present).
  // A stateful predict re-injects sets of hash-proven-unchanged tables from
  // its IncrementalState this way: a set is a pure function of the table
  // cells and the key columns, and consumers only probe it (count/size), so
  // a reused set is observationally identical to a rebuilt one.
  void Seed(int table_index, const std::vector<int>& columns,
            std::shared_ptr<const HashSet> set);

  // Snapshot of every entry whose set is ready (seeded or already built);
  // in-flight builds are skipped. Used to persist sets across runs.
  std::vector<std::pair<Key, std::shared_ptr<const HashSet>>> Entries();

  // Number of sets actually constructed so far (seeded sets not included).
  size_t builds() const { return builds_.load(std::memory_order_relaxed); }

 private:
  std::mutex mu_;
  std::map<Key, std::shared_future<std::shared_ptr<const HashSet>>> entries_;
  std::atomic<size_t> builds_{0};
};

// One approximate inclusion dependency: dependent ⊆ referenced (dependent is
// the prospective FK side, referenced the PK side).
struct Ind {
  ColumnRef dependent;
  ColumnRef referenced;
  // Fraction of dependent distinct values found in referenced.
  double containment = 0.0;
  bool IsComposite() const { return dependent.columns.size() > 1; }
};

// Builds the set of stable 64-bit tuple hashes of the non-null-complete
// tuples of `columns` over `table` (the referenced side of composite
// containment). Exposed for CompositeKeyCache and tests. Streams the hashes
// from per-column key views (table/key_view.h) — one bounded-format pass per
// column, no per-cell string materialization.
CompositeKeyCache::HashSet BuildCompositeKeySet(const Table& table,
                                                const std::vector<int>& cols);

// Row-weighted containment of the composite tuples of (ta, ca) in a
// prebuilt referenced tuple-hash set: fraction of ta's non-null-complete
// `ca` tuples (per row) that appear in `referenced`. The view-based overload
// lets callers (ScanTablePair) reuse dependent-side views across probes.
double CompositeContainment(const Table& ta, const std::vector<int>& ca,
                            const CompositeKeyCache::HashSet& referenced);
double CompositeContainment(const std::vector<const ColumnKeyView*>& cols,
                            size_t rows,
                            const CompositeKeyCache::HashSet& referenced);

// Convenience form that builds the referenced set ad hoc. Prefer the
// prebuilt-set overload (via CompositeKeyCache) on hot paths.
double CompositeContainment(const Table& ta, const std::vector<int>& ca,
                            const Table& tb, const std::vector<int>& cb);

// Result of scanning one ordered table pair: the INDs found plus the pair's
// share of the run counters (aggregated serially by DiscoverInds).
struct IndPairScan {
  std::vector<Ind> inds;
  IndStats stats;
};

// Scans one ordered table pair (ti -> tj) for unary and composite INDs —
// exactly the per-pair unit DiscoverInds fans out. Pure function of its
// inputs apart from the (internally synchronized) composite-key cache, so
// concatenating per-pair results in DiscoverInds' serial pair order
// reproduces a full scan byte-for-byte.
//
// `blocking` is the pair's BuildBlockingPlan entry: only its admitted column
// pairs are checked. Null admits every column pair (the exhaustive oracle).
IndPairScan ScanTablePair(
    const std::vector<Table>& tables,
    const std::vector<TableProfile>& profiles,
    const std::vector<std::vector<Ucc>>& uccs, const IndOptions& options,
    CompositeKeyCache* cache, int ti, int tj,
    const PairBlocking* blocking = nullptr);

// Discovers all approximate INDs between distinct tables of `tables`.
// `profiles` must come from ProfileTables(tables); `uccs[i]` are the UCCs of
// table i (used to direct composite probes and filter referenced sides).
// If `stats` is non-null it receives the run's counters; if `cache` is
// non-null referenced composite key sets are built/reused through it (pass
// one cache across calls to share sets with e.g. reverse-containment
// probing in GenerateCandidates), otherwise a run-local cache is used.
// If `ctx` is non-null, each table-pair scan polls RunContext::StopRequested
// at its boundary and returns no INDs once the run is stopped (graceful
// degradation; a null or untripped context leaves results byte-identical).
// With options.blocking.enabled (default) a BuildBlockingPlan pass first
// prunes the ordered-pair space: only table pairs with at least one admitted
// column pair are scanned at all, and each scan skips non-admitted column
// pairs. The plan's counters land in stats->blocking.
// `rescan`, if non-null, flags the tables whose pairs must be scanned: only
// ordered pairs with at least one flagged table are (BuildBlockingPlan's
// scope rule; null = every pair). A delta predict flags its changed tables
// and reuses the rest; each scanned pair yields exactly what a full run
// yields for it.
std::vector<Ind> DiscoverInds(const std::vector<Table>& tables,
                              const std::vector<TableProfile>& profiles,
                              const std::vector<std::vector<Ucc>>& uccs,
                              const IndOptions& options = {},
                              IndStats* stats = nullptr,
                              CompositeKeyCache* cache = nullptr,
                              const RunContext* ctx = nullptr,
                              const std::vector<char>* rescan = nullptr);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_IND_H_

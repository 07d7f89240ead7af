#ifndef AUTOBI_PROFILE_BLOCKING_H_
#define AUTOBI_PROFILE_BLOCKING_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "profile/column_profile.h"

namespace autobi {

// Lake-scale candidate blocking for IND discovery (PR 9; ROADMAP item 2).
//
// DiscoverInds historically enumerated all O(n^2) ordered table pairs and,
// within each pair, all column pairs — fine at the paper's ~20 tables,
// quadratic collapse at data-lake scale. Blocking replaces the all-pairs
// loops with a value-level inverted index: each prospective dependent
// (FK-side) column draws a small, deterministic probe set, the probes of
// every column are indexed by hash, every column's distinct hashes stream
// through that index once, and only column pairs that share enough probed
// values are admitted to the exact containment checks. The index holds the
// probes, not the data, so its size follows the column count. Table pairs
// with zero admitted column pairs are never scanned at all — on a lake of
// disconnected islands that is the overwhelming majority, which is what
// makes end-to-end Predict near-linear in table count.
//
// The admission predicate is conservative by design. Each dependent column
// a probes with two classes of hashes:
//   - the kBottomProbes hashes smallest under a SplitMix64 remix (the
//     raw FNV-1a profile hashes cluster sequential keys, so the remix is
//     what makes this a uniform sample of a's distinct values), and
//   - the top kHeavyProbes hashes by occurrence count (containment is
//     row-weighted — see Containment() — so high-weight pairs must share
//     heavy values; ties broken by hash ascending).
// The pair (a in b) is admitted iff either class finds >= a
// kMinProbeFraction share of its probes in b's distinct hashes. A pair
// above a containment threshold tau either spreads its shared row weight
// over many distinct values (the uniform sample then hits at rate ~tau) or
// concentrates it in few (those values then dominate the by-count heavy
// set), so clearing BOTH fraction tests while truly contained requires a
// coordinated estimator failure — vanishingly unlikely at the default
// budgets, and verified recall-1.0 on the corpus, the TPC-H DDL schema,
// and the synthetic lakes by the blocking property tests. Columns with
// <= kProbeAllBelow distinct values skip sampling entirely: every value
// is probed with its count, and admission compares the EXACT row-weighted
// containment against kMinProbeFraction (no estimator, no failure mode).
// The exhaustive path (enabled = false) is retained as the oracle.
//
// The fraction threshold assumes the downstream containment thresholds
// (IndOptions.min_containment / component_threshold) stay well above
// kMinProbeFraction — the shipped defaults give a 0.68 / 0.25 margin.
// Callers lowering containment thresholds toward kMinProbeFraction must
// disable blocking; a threshold of 0 (admit any overlap) cannot be
// supported by any blocking scheme.
//
// Determinism contract: the predicate is a pure pair-local function of the
// two column profiles, so which ordered pairs a plan covers never changes
// the admissions of a pair it does cover. BuildBlockingPlan evaluates it
// through a global index when every ordered pair is in scope (every
// stateless predict, and a stateful one with at most one unchanged table),
// and pair by pair from per-table probe sets when a rescan leaves pairs out
// (a delta predict). Both modes produce identical admissions by
// construction, which is what keeps delta re-prediction byte-identical to a
// cold run with blocking on.

// Probe budget: k hashes smallest under a SplitMix64 remix (a uniform
// sample of the column's distinct values).
inline constexpr size_t kBottomProbes = 24;
// Probe budget: top hashes by occurrence count (count desc, hash asc).
inline constexpr size_t kHeavyProbes = 16;
// Columns with at most this many distinct values probe every value
// (admission is then exact, not probabilistic).
inline constexpr size_t kProbeAllBelow = 64;
// Minimum share of a probe class that must hit the referenced column for
// admission (exact mode: minimum true row-weighted containment). Comfortably
// below every containment threshold in use; see above.
inline constexpr double kMinProbeFraction = 0.25;

struct BlockingOptions {
  // Master switch, read by DiscoverInds. false = the exhaustive all-pairs
  // oracle.
  bool enabled = true;
};

// Counters of one blocking run (plan-level; thread-count invariant).
struct BlockingStats {
  // Ordered cross-table column pairs in scope vs admitted past blocking.
  size_t column_pairs_total = 0;
  size_t column_pairs_admitted = 0;
  size_t column_pairs_pruned = 0;  // total - admitted.
  // Ordered table pairs in scope vs pairs with >= 1 admitted column pair
  // (only active pairs are scanned by DiscoverInds).
  size_t table_pairs_total = 0;
  size_t table_pairs_active = 0;

  void Add(const BlockingStats& o) {
    column_pairs_total += o.column_pairs_total;
    column_pairs_admitted += o.column_pairs_admitted;
    column_pairs_pruned += o.column_pairs_pruned;
    table_pairs_total += o.table_pairs_total;
    table_pairs_active += o.table_pairs_active;
  }

  double PruningRate() const {
    if (column_pairs_total == 0) return 0.0;
    return static_cast<double>(column_pairs_pruned) /
           static_cast<double>(column_pairs_total);
  }
};

// Admission of one ordered table pair (dependent ti -> referenced tj):
// the admitted (dependent column, referenced column) pairs, sorted
// lexicographically — the exact iteration order of the exhaustive unary
// nested loop restricted to admitted pairs.
struct PairBlocking {
  std::vector<std::pair<int, int>> admitted;
};

// The admissions of every ACTIVE ordered table pair in scope, keyed
// (ti, tj) — std::map order is exactly DiscoverInds' serial ti-major pair
// order restricted to active pairs. Ordered pairs absent from the map have
// zero admitted column pairs (or are out of scope) and are skipped entirely.
//
// `rescan`, if non-null, holds one flag per table: an ordered pair is in
// scope iff at least one of its tables is flagged (null = every pair). Both
// modes build every table's probe sets once. When every ordered pair is in
// scope (at most one table unflagged) the plan indexes the probes of every
// column by hash and streams each column's distinct hashes through that
// index once, counting hits per (dependent, referenced) column pair;
// otherwise it evaluates the predicate for the in-scope pairs only, by
// binary searches of the referenced columns, which costs less when few
// tables changed. `stats`, if non-null, receives the counters of the
// in-scope pairs.
//
// `options` is not read: the plan depends only on the profiles, `rescan`
// and the constants above. Probe-set builds and probing fan out over
// `threads` (ResolveThreads semantics); the plan is bit-identical at any
// thread count. If `ctx` is non-null, the fan-outs poll
// RunContext::StopRequested at table, column and pair boundaries; work
// skipped after a trip contributes no admissions (the caller's
// stage-degradation marking covers this, as the same stop gates the scans
// downstream).
std::map<std::pair<int, int>, PairBlocking> BuildBlockingPlan(
    const std::vector<TableProfile>& profiles, const BlockingOptions& options,
    BlockingStats* stats = nullptr, int threads = 0,
    const RunContext* ctx = nullptr,
    const std::vector<char>* rescan = nullptr);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_BLOCKING_H_

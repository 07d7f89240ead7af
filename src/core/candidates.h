#ifndef AUTOBI_CORE_CANDIDATES_H_
#define AUTOBI_CORE_CANDIDATES_H_

#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "common/run_context.h"
#include "core/schema_diff.h"
#include "features/featurizer.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "table/table.h"

namespace autobi {

// A candidate is 1:1-shaped when both endpoints have distinct ratio at least
// kOneToOneDistinctRatio and each contains the other at least
// kOneToOneMinContainment (Appendix A, "separate N-1 and 1-1 classifiers").
inline constexpr double kOneToOneDistinctRatio = 0.95;
inline constexpr double kOneToOneMinContainment = 0.9;

struct CandidateGenOptions {
  UccOptions ucc;
  IndOptions ind;
  // When a table pair has no data to probe (e.g. tables parsed from DDL, or
  // tables excluded from value probing by a RunContext row/cell budget),
  // fall back to metadata-screened candidates so schema-only prediction
  // still works (extension beyond the paper).
  bool metadata_fallback_for_empty_tables = true;
  // Worker threads for profiling/UCC (per table) and IND discovery (per
  // table pair). ResolveThreads semantics: 0 = AUTOBI_THREADS/hardware,
  // 1 = serial. Also the default for ind.threads when that is 0. The
  // candidate set produced is identical at any thread count.
  int threads = 0;
};

// Output of the candidate-generation stage (UCC + IND discovery, the first
// two latency components of Figure 5(b)).
struct CandidateSet {
  std::vector<TableProfile> profiles;
  std::vector<std::vector<Ucc>> uccs;
  std::vector<JoinCandidate> candidates;
  // Stage latencies in seconds.
  double ucc_seconds = 0.0;
  double ind_seconds = 0.0;
  // Observability counters of the IND stage (screens hit, exact checks run,
  // composite sets built/truncated); includes the reverse-containment
  // composite sets built by candidate conversion.
  IndStats ind_stats;
  // Degradation markers (RunContext budgets / deadline / cancellation; see
  // ARCHITECTURE.md). Healthy runs leave both untouched.
  StageHealth ucc_health;
  StageHealth ind_health;
};

// Profiles the tables, discovers UCCs and approximate INDs, and converts
// them into deduplicated join candidates. N:1 candidates keep the FK->PK
// direction of their IND; 1:1-shaped pairs are emitted once (from the
// lower-indexed table) with one_to_one = true.
//
// If `ctx` is non-null, the stage honours its budgets and deadline/cancel
// flag: tables over the row/cell budget keep metadata-only profiles (and
// flow through the same name-based fallback as empty DDL tables), the
// deduplicated candidate list is truncated to max_candidate_pairs in its
// deterministic sorted order, and a tripped deadline/cancel skips remaining
// per-table / per-pair work. Whatever degrades is recorded in
// ucc_health/ind_health; a null or untripped context yields byte-identical
// output to a context-free run.
CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const CandidateGenOptions& options = {},
                                const RunContext* ctx = nullptr);

struct PipelineRun;  // core/incremental.h

// Stages 1-2 as every predict runs them (the overload above is this with a
// stateless run). `snapshots[i]` must equal SnapshotTable(tables[i]), plus
// any append record; its hashes key the table cache (run->cache) and the
// schema diff (run->prev). With neither, nothing reads them and `snapshots`
// may be empty. With run->prev set, what the diff proves unchanged is
// reused, including the scored candidates of pairs of unchanged tables
// (scores land in run->scores). Every other pair is rescanned by one
// DiscoverInds call whose `rescan` flags the tables that are not unchanged;
// its blocking plan picks the global index or pair-local admission (see
// BuildBlockingPlan). The candidate set is byte-identical to a stateless
// run's either way.
CandidateSet GenerateCandidates(const std::vector<Table>& tables,
                                const std::vector<TableSnapshot>& snapshots,
                                const CandidateGenOptions& options,
                                const RunContext* ctx, PipelineRun* run);

// --- Pair-local building blocks of candidate conversion (also called by
// perfbench's layer-by-layer replay). Each helper is a pure pair-local
// function: (src, dst) keys determine the table pair even after 1:1
// canonical reorientation, so candidates of different table pairs never
// collide in the dedup map and a rescanned pair's candidates merge with
// reused ones exactly as a full run would produce them.

// The deduplicated candidate map of candidate generation, ordered by
// (src, dst) — std::map iteration order IS the deterministic candidate order
// the budget truncation and scoring stages see.
using CandidateMap = std::map<std::pair<ColumnRef, ColumnRef>, JoinCandidate>;

// Converts discovered INDs into deduplicated candidates in `dedup`: reverse
// containment (profile-based for unary, exact probe through
// `composite_cache` for composite), 1:1 detection + canonical orientation,
// prefer-1:1 replacement on key collision. GenerateCandidates' conversion
// step. `options` is not read: the 1:1 thresholds are the constants above.
void AddIndCandidates(const std::vector<Ind>& inds,
                      const std::vector<Table>& tables,
                      const std::vector<TableProfile>& profiles,
                      const CandidateGenOptions& options,
                      CompositeKeyCache* composite_cache, CandidateMap* dedup);

// Metadata-screened fallback candidates of the ordered pair (ti -> tj), added
// only when at least one side was not value-probed (probed[t] = table t has
// rows and was admitted under the RunContext table budgets). No-op when both
// sides were probed, matching GenerateCandidates' fallback loop.
void AddMetadataFallbackCandidates(const std::vector<Table>& tables,
                                   const std::vector<char>& probed, int ti,
                                   int tj, CandidateMap* dedup);

// Everything profiling depends on besides the table bytes, folded into the
// profile-cache key so an options change can never serve a stale entry.
uint64_t UccOptionsFingerprint(const UccOptions& ucc);

// True when a RunContext row/cell budget excludes `table` from value probing
// (the admission predicate of GenerateCandidates).
bool OverTableBudget(const Table& table, const RunContext::Budgets& budgets);

}  // namespace autobi

#endif  // AUTOBI_CORE_CANDIDATES_H_

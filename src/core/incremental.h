#ifndef AUTOBI_CORE_INCREMENTAL_H_
#define AUTOBI_CORE_INCREMENTAL_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/auto_bi.h"
#include "core/predict_cache.h"
#include "core/schema_diff.h"
#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"

namespace autobi {

// Cross-call state of the prediction pipeline (AutoBi::PredictIncremental;
// the repeated-inference regime of Tursio's production framing). Every
// predict runs the same stages; a state only tells them what they may skip.
// It holds what the last healthy stateful run computed: table snapshots to
// diff against (core/schema_diff.h), profiles + UCCs (name-free, so they
// survive renames; appended tables merge theirs forward), the scored
// candidates (name-dependent, reused only between unchanged tables), the
// composite key sets, and the graph and solve (reused wholesale when the
// new graph is structurally identical — the warm start).
//
// Contract: a stateful run's output is bit-identical to a stateless
// AutoBi::Predict on the same tables for every result field except timing,
// result.incremental and result.ind_stats. Degraded runs (deadline/cancel
// trips, injected faults) never update the state; the next call rebuilds.
struct IncrementalState {
  // False until the first healthy run commits; invalidated by the
  // PredictIncremental entry screen.
  bool valid = false;
  // SolveKeyFingerprint of the run that produced this state: any mismatch
  // (options or deterministic budgets changed) makes the next run rebuild
  // from scratch.
  uint64_t options_fp = 0;
  std::vector<TableSnapshot> snapshots;
  std::vector<TableProfile> profiles;
  std::vector<std::vector<Ucc>> uccs;
  // The committed run's candidates in candidate order with their calibrated
  // scores, table indices in the state's own (previous-run) index space.
  std::vector<JoinCandidate> candidates;
  std::vector<double> probabilities;
  // Referenced-side composite key sets by (state table index, key columns),
  // re-seeded for every table whose cells did not change.
  std::map<CompositeKeyCache::Key,
           std::shared_ptr<const CompositeKeyCache::HashSet>>
      key_sets;
  // The committed run's join graph and global solve, shared with the solve
  // memo; a warm start replays it wholesale, partition telemetry included.
  std::shared_ptr<const PredictCache::SolveEntry> solve;
};

// What one run of the shared stages passes between them besides the
// CandidateSet.
struct PipelineRun {
  // The state to reuse from (valid, same options fingerprint), or null:
  // every table counts as new.
  const IncrementalState* prev = nullptr;
  // The cross-request cache whose table shard stage 1 reads and fills
  // (AutoBiOptions::cache), or null. Stateful runs leave it null.
  PredictCache* cache = nullptr;
  // Per candidate: the score carried over from `prev`, or
  // kSkippedCandidateScore when stage 3 must score it.
  std::vector<double> scores;
  // Stage 2's composite key sets, seeded from `prev` (kept only to commit).
  std::unique_ptr<CompositeKeyCache> key_sets =
      std::make_unique<CompositeKeyCache>();
  // The stages' work counters.
  IncrementalStats stats;
};

}  // namespace autobi

#endif  // AUTOBI_CORE_INCREMENTAL_H_

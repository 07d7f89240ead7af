#ifndef AUTOBI_COMMON_RUN_CONTEXT_H_
#define AUTOBI_COMMON_RUN_CONTEXT_H_

#include <atomic>
#include <chrono>
#include <cstddef>
#include <string>
#include <utility>

#include "common/status.h"

namespace autobi {

// Per-stage degradation marker. When a RunContext deadline, cancellation or
// budget trips inside a stage, the stage still produces a feasible partial
// result and records here what was given up and why. A healthy stage leaves
// this untouched.
struct StageHealth {
  bool degraded = false;
  std::string trigger;  // Human-readable reason; empty when healthy.

  // Records the first trigger (later ones on the same stage are subsumed).
  void MarkDegraded(std::string reason) {
    if (degraded) return;
    degraded = true;
    trigger = std::move(reason);
  }
};

// Cooperative run control for the prediction pipeline: a wall-clock
// deadline, an externally settable cancel flag, and deterministic resource
// budgets, threaded through profiling/UCC -> IND -> local inference ->
// global solve (ARCHITECTURE.md, "Error handling & graceful degradation").
//
// Contract:
//   - A null RunContext* (or a default-constructed RunContext) is a no-op:
//     the pipeline behaves bit-identically to a context-free run at any
//     thread count. StopRequested() is then two relaxed atomic loads and no
//     clock read.
//   - Deadline/cancel state is polled at stage and item boundaries only
//     (per table, per table pair, per candidate). When nothing trips, the
//     polls have no observable effect; when something trips, each stage
//     degrades to a well-defined partial result (see AutoBiDegradation)
//     instead of erroring or hanging.
//   - Budgets are deterministic (counted, not timed): the same inputs trip
//     the same budget at the same point regardless of thread count.
//   - Thread safety: Cancel() and all const queries may race freely with a
//     running pipeline. Deadline and budgets must be set before the run
//     starts.
class RunContext {
 public:
  // Deterministic resource budgets. 0 always means "unlimited".
  struct Budgets {
    // Tables with more rows / cells (rows * columns) than this are excluded
    // from value probing: they keep a metadata-only profile, discover no
    // UCCs/INDs, and fall back to name-based candidates (same path as
    // empty DDL tables). Budgets do not bound hashing: every predict still
    // reads each table's cells once to hash them (core/schema_diff.h).
    size_t max_rows_per_table = 0;
    size_t max_cells_per_table = 0;
    // Hard cap on the deduplicated candidate-pair list fed to local
    // inference; the list is truncated in its deterministic sorted order.
    size_t max_candidate_pairs = 0;
    // Cap on 1-MCA (Edmonds) invocations inside the k-MCA-CC search. When
    // set, the solver runs with min(this, KmcaCcOptions::max_one_mca_calls)
    // and returns its greedy feasible fallback on exhaustion.
    long max_one_mca_calls = 0;
  };

  RunContext() = default;
  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

  // --- Deadline (steady clock). Set before the run starts.
  void set_deadline(std::chrono::steady_clock::time_point deadline);
  void set_deadline_after(double seconds);
  void clear_deadline();
  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_relaxed);
  }
  // Seconds until the deadline (negative if past); +infinity without one.
  double SecondsRemaining() const;

  // --- Cooperative cancellation. Safe from any thread at any time.
  void Cancel() { cancelled_.store(true, std::memory_order_relaxed); }
  bool cancelled() const {
    return cancelled_.load(std::memory_order_relaxed);
  }

  // True when the run should stop (cancelled, or past the deadline). This
  // is the cheap poll used at item boundaries.
  bool StopRequested() const;

  // Status form for stage boundaries: OK, or kCancelled /
  // kDeadlineExceeded with `stage` named in the message.
  Status CheckStop(const char* stage) const;

  Budgets budgets;

 private:
  std::atomic<bool> cancelled_{false};
  std::atomic<bool> has_deadline_{false};
  std::chrono::steady_clock::time_point deadline_{};
};

}  // namespace autobi

#endif  // AUTOBI_COMMON_RUN_CONTEXT_H_

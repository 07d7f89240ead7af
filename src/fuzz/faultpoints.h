#ifndef AUTOBI_FUZZ_FAULTPOINTS_H_
#define AUTOBI_FUZZ_FAULTPOINTS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace autobi {

// Named fault points for end-to-end fault injection (the autobi_faultfuzz
// campaign, scripts/check.sh AUTOBI_FAULT_SMOKE). Production code guards
// failure-prone operations with FaultPoints::Fire("name"); when the process
// runs with no fault spec configured, every guard is a single relaxed
// atomic load (measured in bench_micro_pipeline --json).
//
// Registered points (see ARCHITECTURE.md for the full registry):
//   io.open          file-open failures in ReadCsvFile / SaveCase / LoadCase
//   io.short_read    ReadCsvFile returns a truncated byte prefix
//   candidates.exhausted   injected kResourceExhausted: candidate list
//                          truncated as if max_candidate_pairs had tripped
//   parallel.task    one task of the scoring ParallelFor throws (exercises
//                    the pool's exception-propagation path and the
//                    kInternal catch at the Predict service boundary);
//                    drawn once per region, before the fan-out
//   serve.request    ServeEngine::HandleLine corrupts the incoming request
//                    line before parsing (truncation + stray quote),
//                    exercising the daemon's malformed-input path
//   io.rename        WriteFileAtomic fails the atomic-rename step (the
//                    temp file is cleaned up, the target left untouched)
//   journal.short_write  RecordLog::Append persists only a prefix of the
//                        framed record before failing (torn write)
//   journal.corrupt  RecordLog::Append silently flips one byte in the
//                    record — acked but damaged; recovery must drop it
//   journal.fsync    RecordLog::Commit fails its fsync barrier (the
//                    appended records are rolled back, the op rejected)
//
// Spec syntax (AUTOBI_FAULT env var or Configure()):
//   "point=prob[,point=prob...][@seed]"
//   e.g. AUTOBI_FAULT="io.open=0.05,parallel.task=0.01@42"
// The Nth query of point P fires iff hash(seed, P, N) < prob, so decisions
// follow from the seed and the order of queries. Every guard queries from
// serial code (a parallel region draws its decision before the fan-out), so
// a campaign's decisions do not depend on thread timing.
class FaultPoints {
 public:
  // Process-wide registry. ConfigureFromEnv() is applied on first access.
  static FaultPoints& Global();

  // Parses and installs a spec; an empty spec disables all injection.
  // Returns false (and disables) on a malformed spec.
  bool Configure(const std::string& spec);
  void ConfigureFromEnv();  // Reads AUTOBI_FAULT.
  void Disable();

  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  // True if the named point should inject a fault now. Thread-safe; the
  // fast path (no spec installed) never takes the lock.
  bool Fire(const char* point);

  // Deterministic fraction in [0, 1) drawn from the point's stream, for
  // faults with a magnitude (e.g. where to truncate a short read). Draws
  // only when called, so it does not perturb Fire() sequences of other
  // points.
  double Fraction(const char* point);

  // Total number of injected faults since the last Configure/Disable.
  long fires() const { return fires_.load(std::memory_order_relaxed); }
  // Per-point fire counts (sorted by point name).
  std::vector<std::pair<std::string, long>> FireCounts() const;

 private:
  FaultPoints() = default;

  struct PointState {
    double probability = 0.0;
    uint64_t queries = 0;  // Per-point decision counter.
    long fires = 0;
  };

  std::atomic<bool> enabled_{false};
  std::atomic<long> fires_{0};
  mutable std::mutex mu_;
  uint64_t seed_ = 1;
  std::map<std::string, PointState> points_;
};

}  // namespace autobi

#endif  // AUTOBI_FUZZ_FAULTPOINTS_H_

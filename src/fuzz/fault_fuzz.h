#ifndef AUTOBI_FUZZ_FAULT_FUZZ_H_
#define AUTOBI_FUZZ_FAULT_FUZZ_H_

#include <cstdint>
#include <string>
#include <vector>

namespace autobi {

// End-to-end fault-injection campaign (the robustness counterpart of the
// solver-correctness fuzzer in fuzzer.h). Each seeded case draws one
// scenario:
//   - byte-mutated / arbitrary-byte CSV text through ReadCsv (strict and
//     lenient, with and without a byte cap),
//   - byte-mutated / arbitrary-byte DDL scripts through ParseSqlDdl,
//   - mutated CSV bytes written to disk and loaded through ReadCsvFile with
//     io.open / io.short_read faults armed,
//   - a full Predict run on a synthetic case under a randomized RunContext
//     (budgets, near-zero deadlines, pre-cancellation) and a randomized
//     AUTOBI_FAULT-style spec arming candidates.exhausted / parallel.task,
//   - byte-mutated / arbitrary-byte NDJSON request lines through
//     ServeEngine::HandleLine (sometimes with the serve.request fault point
//     armed): any input bytes must yield exactly one well-formed JSON
//     response line with "ok" and, on failure, an error code + message,
//   - a schema-evolution sequence: 1-8 random mutations (row appends, added
//     and dropped tables, column/table renames, cell replacements, no-ops)
//     replayed through AutoBi::PredictIncremental with a persistent
//     IncrementalState, cross-checked against a cold Predict on the same
//     post-change tables after every step (bit-identical JSON export and
//     degradation flags when no faults are armed),
//   - a small synthetic lake (disconnected islands, synth/lake.h) through
//     Predict with the usual randomized faults/budgets, and — when nothing
//     time-dependent is armed — a differential run against the exhaustive
//     blocking oracle (blocking.enabled = false): model JSON, join graph
//     and selected edge sets must be bit-identical,
//   - a crash-recovery differential (--scenario crash only): a journaled
//     ModelCatalog driven through random publish/pin ops with
//     journal.short_write / journal.fsync / journal.corrupt / io.rename
//     armed, crashed by tearing or bit-flipping the journal at a random
//     byte, then recovered — the recovered catalog must be byte-identical
//     (versions, labels, pins, NamedJoin sets) to an oracle replay of some
//     committed prefix of the acked history, exact when nothing damaged an
//     acked record, and must keep accepting publishes.
//
// The invariant checked on every case: the service layer either returns a
// well-formed Status error or a result whose model passes ValidateBiModel
// (possibly degraded) — never a crash, hang, or leak (the CI smoke runs the
// campaign under ASan/UBSan).
struct FaultFuzzOptions {
  uint64_t seed = 1;
  long cases = 1000;
  // Wall-clock budget in seconds; 0 disables. When exhausted the run stops
  // early and reports time_budget_hit.
  double time_budget_sec = 0.0;
  // Scratch directory for the ReadCsvFile and crash scenarios; empty skips
  // the file scenario (crash falls back to /tmp).
  std::string scratch_dir = "/tmp";
  // Empty runs the mixed campaign above; "schema" runs only the
  // schema-evolution differential scenario, "lake" only the lake
  // blocking-differential scenario, "crash" only the crash-recovery
  // differential, and "serve" only the serve-engine request lines (the
  // dedicated ASan CI stages).
  std::string scenario;
};

struct FaultFuzzReport {
  long cases_run = 0;
  // Per-scenario counts.
  long csv_cases = 0;
  long ddl_cases = 0;
  long file_cases = 0;
  long pipeline_cases = 0;
  long serve_cases = 0;
  long schema_evolution_cases = 0;
  long lake_cases = 0;
  long crash_cases = 0;
  // Outcome counts (informational; none of these are failures).
  long status_errors = 0;    // Well-formed non-OK Statuses observed.
  long parses_ok = 0;        // Mutated inputs that still parsed.
  long degraded_models = 0;  // Pipeline runs with degradation markers set.
  long injected_faults = 0;  // FaultPoints fires across the campaign.
  // Invariant violations (exit code 1 when nonzero).
  long failures = 0;
  bool time_budget_hit = false;
  double elapsed_sec = 0.0;
  // One line per violation: "case <n> (<scenario>): <message>".
  std::vector<std::string> failure_messages;
};

FaultFuzzReport RunFaultFuzz(const FaultFuzzOptions& options);

// Renders a human-readable summary (first line is the verdict).
std::string FormatFaultFuzzReport(const FaultFuzzReport& report);

}  // namespace autobi

#endif  // AUTOBI_FUZZ_FAULT_FUZZ_H_

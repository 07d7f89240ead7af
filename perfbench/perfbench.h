// Shared declarations of the wire-to-kernel benchmark driver (README.md in
// this directory describes the workloads, metrics and trace format).
#ifndef AUTOBI_PERFBENCH_PERFBENCH_H_
#define AUTOBI_PERFBENCH_PERFBENCH_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/bi_model.h"
#include "core/local_model.h"
#include "serve/json.h"
#include "table/table.h"

namespace autobi::perfbench {

// --- Workloads (workloads.cc) ---------------------------------------------

struct WorkloadSpec {
  std::string name;
  int clients = 1;         // Closed-loop client connections, one thread each.
  int daemon_threads = 1;  // autobi_serve --threads.
  // The session's first predict: the incremental engine (star_session,
  // tpch_keys) or the plain pipeline (lake_session).
  bool cold_incremental = false;
  // Sessions generated per second of measurement; the pool bounds the run.
  double pool_per_second = 1.0;
  // Rounds (one session per client each) after which peak RSS is read; a
  // run that ends earlier reports its final peak RSS instead.
  int rss_round = 1;
};

// Returns false for an unknown workload name.
bool LookupWorkload(const std::string& name, WorkloadSpec* spec);

struct TableInput {
  std::string name;
  std::string csv;
};

// Everything one session script sends, generated from the run seed before
// the timed phase.
struct SessionInput {
  std::vector<TableInput> uploads;  // Upload order == table index order.
  BiModel ground_truth;             // Indexed by upload order.
  std::string append_table;         // Target of the update_table append.
  Json append_columns;              // The delta in update_table's format.
};

// Generates `count` sessions for `spec` from `seed` (deterministic; uses up
// to `threads` generator threads).
std::vector<SessionInput> GenerateSessions(const WorkloadSpec& spec,
                                           uint64_t seed, size_t count,
                                           int threads);

// One request of the session script. Every request but create_session gets
// the session id set by the caller, which differs between the daemon and
// the in-process replay.
struct ScriptStep {
  std::string verb;
  std::string phase;  // For predicts: cold, warm, delta.
  Json request;
};

// create_session -> upload_table per table -> predict (cold) -> predict
// (warm) -> update_table (append) -> predict incremental (delta) ->
// publish_model -> get_model -> close_session.
std::vector<ScriptStep> SessionScript(const WorkloadSpec& spec,
                                      const SessionInput& input, int client);

// Parses a session's CSVs exactly as the daemon does (same CsvOptions), so
// in-process references see byte-identical tables.
std::vector<Table> ParseSessionTables(const SessionInput& session);

// `tables` after the session's update_table delta, applied the way the
// daemon applies it.
std::vector<Table> WithAppend(const std::vector<Table>& tables,
                              const SessionInput& session);

// --- Wire records (driver.cc, consumed by trace.cc) ------------------------

// One request of a session as sent over the socket and its response.
struct OpRecord {
  std::string verb;   // upload_table, predict, update_table, ...
  std::string phase;  // For predicts: cold, warm, delta.
  double wire_ms = 0.0;
  bool ok = false;
  std::string response;  // Raw response line.
};

struct SessionRecord {
  std::vector<OpRecord> ops;
  bool completed = false;
};

// Canonical, order-insensitive rendering of a predict response's joins, or
// of NameJoins over an in-process model: sorted "from -> to [kind]" lines.
std::vector<std::string> CanonicalJoins(const Json& joins_array);
std::vector<std::string> CanonicalJoins(const std::vector<Table>& tables,
                                        const BiModel& model);

// --- Traced replay (trace.cc) ----------------------------------------------

struct TraceOptions {
  int threads = 1;          // Same as the daemon's --threads.
  std::string trace_path;   // Chrome trace-event JSON output.
  std::string state_dir;    // Fresh directory for the replay's catalog.
};

struct TraceResult {
  std::map<std::string, double> metrics;  // Per-layer metric name -> value.
  std::map<std::string, std::string> units;
  size_t replayed_sessions = 0;
  size_t join_mismatches = 0;  // Replayed predicts whose joins differ.
  double overhead_ms = 0.0;    // Traced minus untraced per cold predict.
};

// Replays the recorded sessions in-process through a fresh ServeEngine and
// through the public function of every layer, timing each call.
TraceResult ReplayTraced(const LocalModel& model, const WorkloadSpec& spec,
                         const std::vector<SessionInput>& inputs,
                         const std::vector<SessionRecord>& records,
                         const TraceOptions& options);

// --- Small statistics helpers (driver.cc) -----------------------------------

double Median(std::vector<double> v);
// The highest percentile with at least 10 samples beyond it (rank n-11 of
// the sorted samples, 0-based), never below the median; `percentile`
// receives the percentile used.
double Tail(std::vector<double> v, double* percentile);

}  // namespace autobi::perfbench

#endif  // AUTOBI_PERFBENCH_PERFBENCH_H_

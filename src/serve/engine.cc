#include "serve/engine.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <utility>

#include "common/strings.h"
#include "core/incremental.h"
#include "core/model_export.h"
#include "fuzz/faultpoints.h"
#include "profile/sketch.h"
#include "table/csv.h"

namespace autobi {

StatusOr<QosTier> ParseQosTier(std::string_view name) {
  if (name == "interactive") return QosTier::kInteractive;
  if (name == "standard") return QosTier::kStandard;
  if (name == "batch") return QosTier::kBatch;
  return Status::InvalidInput(
      StrFormat("unknown QoS tier '%.*s' (want interactive|standard|batch)",
                int(name.size()), name.data()));
}

const char* QosTierName(QosTier tier) {
  switch (tier) {
    case QosTier::kInteractive: return "interactive";
    case QosTier::kStandard: return "standard";
    case QosTier::kBatch: return "batch";
  }
  return "standard";
}

QosPolicy PolicyForTier(QosTier tier) {
  // Budget values are deterministic (they key the cross-request cache);
  // deadlines are wall-clock and never key anything. The numbers follow the
  // paper's latency profile: profiling/UCC dominates (Figure 5(b)), so the
  // interactive tier caps the value-probing row counts first.
  QosPolicy p;
  switch (tier) {
    case QosTier::kInteractive:
      p.deadline_seconds = 2.0;
      p.budgets.max_rows_per_table = 50'000;
      p.budgets.max_cells_per_table = 2'000'000;
      p.budgets.max_candidate_pairs = 20'000;
      p.budgets.max_one_mca_calls = 2'000;
      break;
    case QosTier::kStandard:
      p.deadline_seconds = 30.0;
      break;
    case QosTier::kBatch:
      // No deadline, no budgets: full-fidelity offline runs.
      break;
  }
  return p;
}

AdmissionGate::AdmissionGate(int max_inflight, int max_queue)
    : max_inflight_(std::max(1, max_inflight)),
      max_queue_(std::max(0, max_queue)) {}

Status AdmissionGate::Enter() {
  std::unique_lock<std::mutex> lock(mu_);
  if (stats_.inflight < max_inflight_) {
    ++stats_.inflight;
    ++stats_.admitted;
    return Status::Ok();
  }
  if (stats_.queued >= max_queue_) {
    ++stats_.rejected;
    return Status::ResourceExhausted(StrFormat(
        "admission queue full (%d in flight, %d queued); retry with backoff",
        stats_.inflight, stats_.queued));
  }
  ++stats_.queued;
  const auto wait_start = std::chrono::steady_clock::now();
  cv_.wait(lock, [this] { return stats_.inflight < max_inflight_; });
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wait_start)
          .count();
  stats_.queue_wait_total_seconds += waited;
  stats_.queue_wait_max_seconds =
      std::max(stats_.queue_wait_max_seconds, waited);
  --stats_.queued;
  ++stats_.inflight;
  ++stats_.admitted;
  return Status::Ok();
}

void AdmissionGate::Exit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --stats_.inflight;
  }
  cv_.notify_one();
}

AdmissionGate::Stats AdmissionGate::GetStats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

namespace {

// Releases an admission slot on scope exit.
class GateGuard {
 public:
  explicit GateGuard(AdmissionGate* gate) : gate_(gate) {}
  ~GateGuard() { gate_->Exit(); }
  GateGuard(const GateGuard&) = delete;
  GateGuard& operator=(const GateGuard&) = delete;

 private:
  AdmissionGate* gate_;
};

// Starts the response envelope: echoes the request id (any JSON type).
Json BeginResponse(const Json* request) {
  Json resp = Json::MakeObject();
  if (request != nullptr) {
    if (const Json* id = request->Find("id")) resp.Set("id", *id);
  }
  return resp;
}

// A 64-bit content hash as the wire's 16 lower-case hex digits.
Json HexHash(uint64_t hash) {
  return Json::MakeString(
      StrFormat("%016llx", static_cast<unsigned long long>(hash)));
}

Json JoinsToJson(const std::vector<NamedJoin>& joins) {
  Json arr = Json::MakeArray();
  for (const NamedJoin& j : joins) {
    Json obj = Json::MakeObject();
    obj.Set("from", Json::MakeString(j.from.ToString()));
    obj.Set("to", Json::MakeString(j.to.ToString()));
    obj.Set("kind", Json::MakeString(j.kind == JoinKind::kOneToOne ? "1:1"
                                                                   : "N:1"));
    arr.Append(std::move(obj));
  }
  return arr;
}

Json CacheStatsToJson(const PredictCache::Stats& s) {
  Json obj = Json::MakeObject();
  obj.Set("table_hits", Json::MakeInt(int64_t(s.table_hits)));
  obj.Set("table_misses", Json::MakeInt(int64_t(s.table_misses)));
  obj.Set("solve_hits", Json::MakeInt(int64_t(s.solve_hits)));
  obj.Set("solve_misses", Json::MakeInt(int64_t(s.solve_misses)));
  obj.Set("table_entries", Json::MakeInt(int64_t(s.table_entries)));
  obj.Set("solve_entries", Json::MakeInt(int64_t(s.solve_entries)));
  obj.Set("evictions", Json::MakeInt(int64_t(s.evictions)));
  return obj;
}

// Appends one JSON cell to a column, coercing numbers to the column's
// established type. Shared by the full columns-form upload and the
// update_table append path so both enforce identical typing rules.
Status AppendJsonCell(Column& out, const Json& v, size_t r) {
  switch (v.type()) {
    case Json::Type::kNull:
      out.AppendNull();
      break;
    case Json::Type::kNumber:
      // Integral JSON numbers become int cells, fractional ones double
      // cells — but a column must stay single-typed, so once the column
      // has a type, coerce to it.
      if (out.type() == ValueType::kString) {
        return Status::InvalidInput(
            StrFormat("column '%s' mixes numbers with string cells",
                      out.name().c_str()));
      }
      if (out.type() == ValueType::kDouble) {
        out.AppendDouble(v.AsDouble());
      } else if (out.type() == ValueType::kInt) {
        out.AppendInt(v.AsInt());
      } else if (v.AsDouble() == double(v.AsInt()) &&
                 double(v.AsInt()) == v.AsDouble()) {
        out.AppendInt(v.AsInt());
      } else {
        out.AppendDouble(v.AsDouble());
      }
      break;
    case Json::Type::kString:
      if (out.type() != ValueType::kNull &&
          out.type() != ValueType::kString) {
        return Status::InvalidInput(StrFormat(
            "column '%s' mixes strings with %s cells",
            out.name().c_str(),
            out.type() == ValueType::kInt ? "int" : "double"));
      }
      out.AppendString(v.AsString());
      break;
    default:
      return Status::InvalidInput(StrFormat(
          "column '%s' row %zu: cells must be null/number/string",
          out.name().c_str(), r));
  }
  return Status::Ok();
}

StatusOr<Table> TableFromColumnsJson(const std::string& name,
                                     const Json& columns) {
  Table table(name);
  for (size_t i = 0; i < columns.size(); ++i) {
    const Json& col = columns.at(i);
    if (!col.is_object()) {
      return Status::InvalidInput("each column must be an object");
    }
    AUTOBI_ASSIGN_OR_RETURN(std::string col_name,
                            col.GetString("name", std::string()));
    if (col_name.empty()) {
      return Status::InvalidInput(
          StrFormat("column %zu is missing a 'name'", i));
    }
    const Json* values = col.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::InvalidInput(StrFormat(
          "column '%s' needs a 'values' array", col_name.c_str()));
    }
    Column& out = table.AddColumn(std::move(col_name));
    for (size_t r = 0; r < values->size(); ++r) {
      AUTOBI_RETURN_IF_ERROR(AppendJsonCell(out, values->at(r), r));
    }
  }
  if (!table.Validate()) {
    return Status::InvalidInput("columns have unequal lengths");
  }
  return table;
}

// Appends a columns-form delta to `table` in place: the delta must carry
// exactly the table's columns (same names, same order) with equal-length
// value arrays, typed compatibly with the existing cells. The append-only
// shape is what the incremental engine's schema diff recognizes as
// kAppended — old rows keep their byte-identical prefix.
Status AppendDeltaColumns(Table* table, const Json& columns) {
  // Reads go through const access: a rejected delta copies no column.
  const Table& current = *table;
  if (columns.size() != current.num_columns()) {
    return Status::InvalidInput(StrFormat(
        "delta has %zu columns, table '%s' has %zu", columns.size(),
        current.name().c_str(), current.num_columns()));
  }
  // Validate shape before mutating anything.
  size_t rows = 0;
  for (size_t i = 0; i < columns.size(); ++i) {
    const Json& col = columns.at(i);
    if (!col.is_object()) {
      return Status::InvalidInput("each column must be an object");
    }
    AUTOBI_ASSIGN_OR_RETURN(std::string col_name,
                            col.GetString("name", std::string()));
    if (col_name != current.column(i).name()) {
      return Status::InvalidInput(StrFormat(
          "delta column %zu is '%s', table has '%s' (append must keep the "
          "schema)",
          i, col_name.c_str(), current.column(i).name().c_str()));
    }
    const Json* values = col.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::InvalidInput(StrFormat(
          "column '%s' needs a 'values' array", col_name.c_str()));
    }
    if (i == 0) {
      rows = values->size();
    } else if (values->size() != rows) {
      return Status::InvalidInput("delta columns have unequal lengths");
    }
  }
  for (size_t i = 0; i < columns.size(); ++i) {
    const Json* values = columns.at(i).Find("values");
    Column& out = table->column(i);
    for (size_t r = 0; r < values->size(); ++r) {
      AUTOBI_RETURN_IF_ERROR(AppendJsonCell(out, values->at(r), r));
    }
  }
  return Status::Ok();
}

StatusOr<AutoBiMode> ParseMode(std::string_view name) {
  if (name == "full") return AutoBiMode::kFull;
  if (name == "precision" || name == "precision_only") {
    return AutoBiMode::kPrecisionOnly;
  }
  if (name == "schema" || name == "schema_only") return AutoBiMode::kSchemaOnly;
  return Status::InvalidInput(
      StrFormat("unknown mode '%.*s' (want full|precision_only|schema_only)",
                int(name.size()), name.data()));
}

}  // namespace

Json MakeErrorResponse(const Json* request, const Status& status) {
  Json resp = BeginResponse(request);
  resp.Set("ok", Json::MakeBool(false));
  Json err = Json::MakeObject();
  err.Set("code", Json::MakeString(StatusCodeName(status.code())));
  err.Set("message", Json::MakeString(status.message()));
  resp.Set("error", std::move(err));
  return resp;
}

ServeEngine::ServeEngine(const LocalModel* model, ServeOptions options)
    : model_(model),
      options_(options),
      cache_(options.cache),
      catalog_(options.max_unpinned_models_per_tenant),
      gate_(options.max_inflight, options.max_queue) {}

void ServeEngine::SetPredictHoldHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  predict_hold_hook_ = std::move(hook);
}

void ServeEngine::SetShutdownCallback(std::function<void()> callback) {
  std::lock_guard<std::mutex> lock(hook_mu_);
  shutdown_callback_ = std::move(callback);
}

Status ServeEngine::RecoverState() {
  if (options_.state_dir.empty()) return Status::Ok();
  return catalog_.OpenStateDir(options_.state_dir,
                               options_.journal_compact_every);
}

Status ServeEngine::FlushState() { return catalog_.Flush(); }

std::string ServeEngine::HandleLine(std::string_view line) {
  std::string buffer;
  if (FaultPoints::Global().Fire("serve.request")) {
    // Corrupt the request the way a broken client or truncated pipe would:
    // cut at a fraction-determined byte and append a stray quote. The
    // contract under test: any bytes in, one well-formed JSON error line
    // out.
    size_t cut = size_t(FaultPoints::Global().Fraction("serve.request") *
                        double(line.size()));
    buffer.assign(line.substr(0, cut));
    buffer.push_back('"');
    line = buffer;
  }
  StatusOr<Json> parsed = ParseJson(line);
  if (!parsed.ok()) {
    ++requests_;
    ++errors_;
    return MakeErrorResponse(nullptr, parsed.status()).Write();
  }
  return Handle(*parsed).Write();
}

Json ServeEngine::Handle(const Json& request) {
  ++requests_;
  // Only an object request has an id to echo.
  const Json* echo = request.is_object() ? &request : nullptr;
  Json resp = BeginResponse(echo);
  resp.Set("ok", Json::MakeBool(true));
  Status status;
  try {
    status = Dispatch(request, &resp);
  } catch (const std::exception& e) {
    // Service boundary: nothing escapes as an exception.
    status = Status::Internal(StrFormat("request failed: %s", e.what()));
  }
  if (status.ok()) return resp;
  ++errors_;
  return MakeErrorResponse(echo, status);
}

Status ServeEngine::Dispatch(const Json& request, Json* resp) {
  static constexpr struct {
    std::string_view name;
    Status (ServeEngine::*handler)(const Json&, Json*);
  } kVerbs[] = {
      {"ping", &ServeEngine::HandlePing},
      {"create_session", &ServeEngine::HandleCreateSession},
      {"close_session", &ServeEngine::HandleCloseSession},
      {"upload_table", &ServeEngine::HandleUploadTable},
      {"update_table", &ServeEngine::HandleUpdateTable},
      {"predict", &ServeEngine::HandlePredict},
      {"get_model", &ServeEngine::HandleGetModel},
      {"diff", &ServeEngine::HandleDiff},
      {"publish_model", &ServeEngine::HandlePublishModel},
      {"list_models", &ServeEngine::HandleListModels},
      {"pin_model", &ServeEngine::HandlePinModel},
      {"diff_models", &ServeEngine::HandleDiffModels},
      {"get_catalog_model", &ServeEngine::HandleGetCatalogModel},
      {"stats", &ServeEngine::HandleStats},
      {"shutdown", &ServeEngine::HandleShutdown},
  };
  if (!request.is_object()) {
    return Status::InvalidInput("request must be a JSON object");
  }
  AUTOBI_ASSIGN_OR_RETURN(const std::string verb,
                          request.GetString("verb", std::string()));
  if (verb.empty()) return Status::InvalidInput("request is missing 'verb'");
  for (const auto& v : kVerbs) {
    if (verb == v.name) return (this->*v.handler)(request, resp);
  }
  return Status::InvalidInput(StrFormat(
      "unknown verb '%s' (see SERVING.md for the protocol)", verb.c_str()));
}

StatusOr<ServeEngine::Session*> ServeEngine::FindSession(
    const std::string& session_id) {
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::InvalidInput(
        StrFormat("unknown session '%s'", session_id.c_str()));
  }
  return &it->second;
}

StatusOr<ServeEngine::Session> ServeEngine::SnapshotSession(
    const std::string& session_id) {
  std::lock_guard<std::mutex> lock(mu_);
  AUTOBI_ASSIGN_OR_RETURN(const Session* session, FindSession(session_id));
  return *session;
}

Status ServeEngine::HandlePing(const Json&, Json* resp) {
  resp->Set("pong", Json::MakeBool(true));
  return Status::Ok();
}

Status ServeEngine::HandleCreateSession(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(std::string tenant,
                          req.GetString("tenant", "default"));
  std::lock_guard<std::mutex> lock(mu_);
  if (int(sessions_.size()) >= options_.max_sessions) {
    return Status::ResourceExhausted(
        StrFormat("session limit reached (%d); close_session first",
                  options_.max_sessions));
  }
  std::string id = StrFormat("s%lld", static_cast<long long>(next_session_++));
  resp->Set("session", Json::MakeString(id));
  resp->Set("tenant", Json::MakeString(tenant));
  Session session;
  session.tenant = std::move(tenant);
  sessions_.emplace(std::move(id), std::move(session));
  return Status::Ok();
}

Status ServeEngine::HandleCloseSession(const Json& req, Json*) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  decltype(sessions_)::node_type closed;  // Freed after mu_ is released.
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUTOBI_RETURN_IF_ERROR(FindSession(id).status());
    closed = sessions_.extract(id);
  }
  return Status::Ok();
}

Status ServeEngine::EditTableSet(const std::string& session_id,
                                 const std::function<Status(TableSet*)>& edit) {
  std::shared_ptr<const TableSet> base;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUTOBI_ASSIGN_OR_RETURN(Session* session, FindSession(session_id));
    base = session->tables;
  }
  for (;;) {
    // Copies table handles and snapshots, no cells.
    auto next = std::make_shared<TableSet>(*base);
    AUTOBI_RETURN_IF_ERROR(edit(next.get()));
    // Declared after `next` and `base`, so both are freed after unlocking;
    // `base` holds the replaced set.
    std::lock_guard<std::mutex> lock(mu_);
    AUTOBI_ASSIGN_OR_RETURN(Session* session, FindSession(session_id));
    if (session->tables == base) {
      session->tables = std::move(next);
      return Status::Ok();
    }
    base = session->tables;
  }
}

Status ServeEngine::HandleUploadTable(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const std::string name,
                          req.GetString("name", std::string()));

  // Parse and hash the table payload *outside* the session lock (CSV
  // parsing can be the expensive part of an upload).
  const Json* csv = req.Find("csv");
  const Json* columns = req.Find("columns");
  const bool is_csv = csv != nullptr && csv->is_string();
  if (!is_csv && (columns == nullptr || !columns->is_array())) {
    return Status::InvalidInput(
        "upload_table needs 'csv' (string) or 'columns' (array)");
  }
  if (!is_csv && name.empty()) {
    return Status::InvalidInput("columns upload needs a 'name'");
  }
  CsvOptions csv_options;
  csv_options.max_bytes = options_.max_csv_bytes;
  StatusOr<Table> parsed =
      is_csv ? ReadCsv(csv->AsString(), name.empty() ? "table" : name,
                       csv_options)
             : TableFromColumnsJson(name, *columns);
  if (!parsed.ok()) return parsed.status().WithContext("upload_table");
  Table table = std::move(parsed).value();
  TableSnapshot snapshot = SnapshotTable(table);
  const uint64_t content_hash = snapshot.table_hash;
  resp->Set("table", Json::MakeString(table.name()));
  resp->Set("rows", Json::MakeInt(int64_t(table.num_rows())));
  resp->Set("columns", Json::MakeInt(int64_t(table.num_columns())));

  // Re-uploading a name replaces that table, otherwise append. Predicts
  // running on the old set are unaffected.
  bool replaced = false;
  size_t num_tables = 0;
  AUTOBI_RETURN_IF_ERROR(EditTableSet(id, [&](TableSet* next) {
    size_t slot = 0;
    while (slot < next->tables.size() &&
           next->tables[slot].name() != table.name()) {
      ++slot;
    }
    replaced = slot < next->tables.size();
    if (replaced) {
      next->tables[slot] = table;
      next->snapshots[slot] = snapshot;
    } else {
      if (int(next->tables.size()) >= options_.max_tables_per_session) {
        return Status::ResourceExhausted(
            StrFormat("session table limit reached (%d)",
                      options_.max_tables_per_session));
      }
      next->tables.push_back(table);
      next->snapshots.push_back(snapshot);
    }
    num_tables = next->tables.size();
    return Status::Ok();
  }));
  resp->Set("replaced", Json::MakeBool(replaced));
  resp->Set("content_hash", HexHash(content_hash));
  resp->Set("num_tables", Json::MakeInt(int64_t(num_tables)));
  return Status::Ok();
}

Status ServeEngine::HandleUpdateTable(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const std::string name,
                          req.GetString("name", std::string()));
  if (name.empty()) return Status::InvalidInput("update_table needs a 'name'");
  const Json* columns = req.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return Status::InvalidInput(
        "update_table needs 'columns' (array of appended rows)");
  }

  // The append writes the target's own copy of its columns, so a
  // shape/type error discards it and Predicts on the old set are
  // unaffected. The committed table keeps its old rows byte-identical —
  // the incremental engine's diff classifies it as append-only.
  size_t rows_before = 0;
  size_t rows = 0;
  uint64_t content_hash = 0;
  AUTOBI_RETURN_IF_ERROR(EditTableSet(id, [&](TableSet* next) {
    size_t slot = 0;
    while (slot < next->tables.size() && next->tables[slot].name() != name) {
      ++slot;
    }
    if (slot == next->tables.size()) {
      return Status::InvalidInput(
          StrFormat("unknown table '%s' (upload_table first)", name.c_str()));
    }
    Table& target = next->tables[slot];
    rows_before = target.num_rows();
    const std::vector<ValueType> types_before = ColumnTypes(target);
    AUTOBI_RETURN_IF_ERROR(
        AppendDeltaColumns(&target, *columns).WithContext("update_table"));
    // One hash pass over the grown table; the old snapshot's hashes become
    // the append record that spares the next delta predict a rehash.
    next->snapshots[slot] = SnapshotAppendedTable(
        target, std::move(next->snapshots[slot]), types_before);
    rows = target.num_rows();
    content_hash = next->snapshots[slot].table_hash;
    return Status::Ok();
  }));
  resp->Set("table", Json::MakeString(name));
  resp->Set("rows_appended", Json::MakeInt(int64_t(rows - rows_before)));
  resp->Set("rows", Json::MakeInt(int64_t(rows)));
  resp->Set("content_hash", HexHash(content_hash));
  return Status::Ok();
}

Status ServeEngine::HandlePredict(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const std::string tier_name,
                          req.GetString("tier", "standard"));
  AUTOBI_ASSIGN_OR_RETURN(const QosTier tier, ParseQosTier(tier_name));
  AUTOBI_ASSIGN_OR_RETURN(const std::string mode_name,
                          req.GetString("mode", "full"));
  AUTOBI_ASSIGN_OR_RETURN(const AutoBiMode mode, ParseMode(mode_name));
  // Opt-in delta path: diff against the session's previous incremental run
  // and recompute only what changed. Bit-identical joins/degradation to a
  // plain predict over the same tables; the response additionally carries
  // the "incremental" counters. Plain predicts keep the solve-memo
  // semantics (the delta path populates but never consults the memo).
  AUTOBI_ASSIGN_OR_RETURN(const bool incremental,
                          req.GetBool("incremental", false));

  const QosPolicy policy = PolicyForTier(tier);
  // Explicit per-request overrides on top of the tier defaults. Budgets are
  // deterministic and key the cache; the deadline does not.
  AUTOBI_ASSIGN_OR_RETURN(
      const double deadline,
      req.GetDouble("deadline_seconds", policy.deadline_seconds));
  AUTOBI_ASSIGN_OR_RETURN(
      const int64_t max_rows,
      req.GetInt("max_rows_per_table",
                 int64_t(policy.budgets.max_rows_per_table)));
  AUTOBI_ASSIGN_OR_RETURN(
      const int64_t max_pairs,
      req.GetInt("max_candidate_pairs",
                 int64_t(policy.budgets.max_candidate_pairs)));
  AUTOBI_ASSIGN_OR_RETURN(
      const int64_t max_mca,
      req.GetInt("max_one_mca_calls",
                 int64_t(policy.budgets.max_one_mca_calls)));
  if (deadline < 0 || max_rows < 0 || max_pairs < 0 || max_mca < 0) {
    return Status::InvalidInput("deadline and budget overrides must be >= 0");
  }

  AUTOBI_RETURN_IF_ERROR(gate_.Enter());
  GateGuard slot(&gate_);
  {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = predict_hold_hook_;
    }
    if (hook) hook();
  }

  // The session's tables and, for a delta predict, its incremental state,
  // taken for exclusive use — the engine must not share one state across
  // concurrent calls. The state goes back on the session after the run,
  // errors included (a failed run leaves it describing the last healthy
  // one).
  std::shared_ptr<const TableSet> tables;
  std::shared_ptr<IncrementalState> inc_state;
  {
    std::lock_guard<std::mutex> lock(mu_);
    AUTOBI_ASSIGN_OR_RETURN(Session* session, FindSession(id));
    if (session->tables->tables.empty()) {
      return Status::InvalidInput("session has no tables (upload_table first)");
    }
    tables = session->tables;
    if (incremental) inc_state = std::move(session->incremental);
  }
  if (incremental && inc_state == nullptr) {
    inc_state = std::make_shared<IncrementalState>();
  }

  RunContext ctx;
  if (deadline > 0) ctx.set_deadline_after(deadline);
  ctx.budgets.max_rows_per_table = size_t(max_rows);
  ctx.budgets.max_cells_per_table = policy.budgets.max_cells_per_table;
  ctx.budgets.max_candidate_pairs = size_t(max_pairs);
  ctx.budgets.max_one_mca_calls = long(max_mca);

  AutoBiOptions ab;
  ab.mode = mode;
  ab.threads = options_.threads;
  ab.cache = &cache_;
  AutoBi predictor(model_, ab);
  ++predicts_;
  StatusOr<AutoBiResult> result =
      incremental
          ? predictor.PredictIncremental(tables->tables, &ctx, inc_state.get(),
                                         &tables->snapshots)
          : predictor.Predict(tables->tables, &ctx, &tables->snapshots);
  std::shared_ptr<Prediction> prediction;
  if (result.ok()) {
    prediction = std::make_shared<Prediction>();
    prediction->tables = tables;
    prediction->joins = std::make_shared<const std::vector<NamedJoin>>(
        NameJoins(tables->tables, result->model));
    prediction->model = std::move(result->model);
  }

  // Record the outcome on the session (tolerating a concurrent close: the
  // response still carries the result). What the swaps replace lands in
  // locals freed after mu_ is released.
  std::shared_ptr<const Prediction> replaced_last;
  JoinList replaced_joins;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(id);
    if (it != sessions_.end()) {
      Session& session = it->second;
      if (inc_state != nullptr) std::swap(session.incremental, inc_state);
      if (prediction != nullptr) {
        if (session.last != nullptr) {
          replaced_joins =
              std::exchange(session.previous_joins, session.last->joins);
        }
        replaced_last = std::exchange(session.last, prediction);
      }
    }
  }
  AUTOBI_RETURN_IF_ERROR(result.status());

  resp->Set("session", Json::MakeString(id));
  resp->Set("tier", Json::MakeString(QosTierName(tier)));
  resp->Set("mode", Json::MakeString(mode_name));
  resp->Set("num_tables", Json::MakeInt(int64_t(tables->tables.size())));
  resp->Set("joins", JoinsToJson(*prediction->joins));
  Json timing = Json::MakeObject();
  timing.Set("ucc_seconds", Json::MakeDouble(result->timing.ucc));
  timing.Set("ind_seconds", Json::MakeDouble(result->timing.ind));
  timing.Set("local_inference_seconds",
             Json::MakeDouble(result->timing.local_inference));
  timing.Set("global_predict_seconds",
             Json::MakeDouble(result->timing.global_predict));
  timing.Set("total_seconds", Json::MakeDouble(result->timing.Total()));
  timing.Set("threads", Json::MakeInt(result->timing.threads));
  resp->Set("timing", std::move(timing));
  if (incremental) {
    Json inc = Json::MakeObject();
    inc.Set("used", Json::MakeBool(result->incremental.used));
    inc.Set("tables_reprofiled",
            Json::MakeInt(int64_t(result->incremental.tables_reprofiled)));
    inc.Set("tables_delta_merged",
            Json::MakeInt(int64_t(result->incremental.tables_delta_merged)));
    inc.Set("pairs_rescored",
            Json::MakeInt(int64_t(result->incremental.pairs_rescored)));
    inc.Set("pairs_reused",
            Json::MakeInt(int64_t(result->incremental.pairs_reused)));
    inc.Set("warm_start_used",
            Json::MakeBool(result->incremental.warm_start_used));
    resp->Set("incremental", std::move(inc));
  }
  // Lake-scale observability: what the blocking stage pruned and how the
  // global solve partitioned. Cumulative engine-level sums feed the stats
  // verb.
  const BlockingStats& b = result->ind_stats.blocking;
  Json blocking = Json::MakeObject();
  blocking.Set("column_pairs_total",
               Json::MakeInt(int64_t(b.column_pairs_total)));
  blocking.Set("column_pairs_admitted",
               Json::MakeInt(int64_t(b.column_pairs_admitted)));
  blocking.Set("column_pairs_pruned",
               Json::MakeInt(int64_t(b.column_pairs_pruned)));
  blocking.Set("table_pairs_total",
               Json::MakeInt(int64_t(b.table_pairs_total)));
  blocking.Set("table_pairs_active",
               Json::MakeInt(int64_t(b.table_pairs_active)));
  blocking.Set("pruning_rate", Json::MakeDouble(b.PruningRate()));
  resp->Set("blocking", std::move(blocking));
  Json partition = Json::MakeObject();
  // `used`: more than one island was solved.
  partition.Set("used",
                Json::MakeBool(result->partition.components_solved > 1));
  partition.Set("components",
                Json::MakeInt(int64_t(result->partition.components)));
  partition.Set("components_solved",
                Json::MakeInt(int64_t(result->partition.components_solved)));
  partition.Set(
      "largest_component_edges",
      Json::MakeInt(int64_t(result->partition.largest_component_edges)));
  resp->Set("partition", std::move(partition));
  blocked_pairs_ += int64_t(b.column_pairs_pruned);
  admitted_pairs_ += int64_t(b.column_pairs_admitted);
  components_solved_ += int64_t(result->partition.components_solved);
  resp->Set("degraded", Json::MakeBool(result->degradation.Any()));
  if (result->degradation.Any()) {
    Json triggers = Json::MakeArray();
    for (const StageHealth* h :
         {&result->degradation.ucc, &result->degradation.ind,
          &result->degradation.local_inference,
          &result->degradation.global_predict}) {
      if (h->degraded) triggers.Append(Json::MakeString(h->trigger));
    }
    resp->Set("degradation", std::move(triggers));
  }
  resp->Set("cache", CacheStatsToJson(cache_.GetStats()));
  return Status::Ok();
}

Status ServeEngine::HandleGetModel(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const std::string format,
                          req.GetString("format", "json"));
  AUTOBI_ASSIGN_OR_RETURN(const Session session, SnapshotSession(id));
  if (session.last == nullptr) {
    return Status::InvalidInput("session has no prediction yet (predict "
                                "first)");
  }
  const std::vector<Table>& tables = session.last->tables->tables;
  const BiModel& model = session.last->model;
  StatusOr<std::string> content = Status::InvalidInput(
      StrFormat("unknown format '%s' (want json|dot|sql)", format.c_str()));
  if (format == "json") {
    content = ExportJson(tables, model);
  } else if (format == "dot") {
    content = ExportDot(tables, model);
  } else if (format == "sql") {
    content = ExportSqlDdl(tables, model);
  }
  AUTOBI_ASSIGN_OR_RETURN(std::string text, std::move(content));

  resp->Set("format", Json::MakeString(format));
  if (format == "json") {
    // Embed the document as a JSON object so clients need not double-parse.
    StatusOr<Json> parsed = ParseJson(text);
    if (!parsed.ok()) {
      return Status::Internal("model export produced invalid JSON");
    }
    resp->Set("model", std::move(*parsed));
  } else {
    resp->Set("content", Json::MakeString(std::move(text)));
  }
  return Status::Ok();
}

Status ServeEngine::HandleDiff(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const Session session, SnapshotSession(id));
  if (session.last == nullptr) {
    return Status::InvalidInput("session has no prediction yet (predict "
                                "first)");
  }
  // The first prediction diffs against the empty model: everything is
  // "added".
  static const std::vector<NamedJoin> kNoJoins;
  const ModelDiff diff = DiffJoinSets(
      session.previous_joins != nullptr ? *session.previous_joins : kNoJoins,
      *session.last->joins);
  resp->Set("against_previous",
            Json::MakeBool(session.previous_joins != nullptr));
  resp->Set("added", JoinsToJson(diff.added));
  resp->Set("removed", JoinsToJson(diff.removed));
  return Status::Ok();
}

Status ServeEngine::HandlePublishModel(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string id,
                          req.GetString("session", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(std::string label,
                          req.GetString("label", std::string()));
  AUTOBI_ASSIGN_OR_RETURN(const Session session, SnapshotSession(id));
  if (session.last == nullptr) {
    return Status::InvalidInput("session has no prediction to publish");
  }
  AUTOBI_ASSIGN_OR_RETURN(const std::string tenant,
                          req.GetString("tenant", session.tenant));
  // The upload-time table hashes make this TablesContentHash of the
  // predicted tables without reading a cell.
  std::vector<uint64_t> table_hashes;
  for (const TableSnapshot& snap : session.last->tables->snapshots) {
    table_hashes.push_back(snap.table_hash);
  }
  AUTOBI_ASSIGN_OR_RETURN(
      const int64_t version,
      catalog_.Publish(tenant, std::move(label),
                       TablesContentHashFromHashes(table_hashes),
                       *session.last->joins));
  resp->Set("tenant", Json::MakeString(tenant));
  resp->Set("version", Json::MakeInt(version));
  return Status::Ok();
}

Status ServeEngine::HandleListModels(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string tenant,
                          req.GetString("tenant", "default"));
  resp->Set("tenant", Json::MakeString(tenant));
  Json arr = Json::MakeArray();
  for (const ModelSnapshot& s : catalog_.List(tenant)) {
    Json obj = Json::MakeObject();
    obj.Set("version", Json::MakeInt(s.version));
    obj.Set("label", Json::MakeString(s.label));
    obj.Set("pinned", Json::MakeBool(s.pinned));
    obj.Set("num_joins", Json::MakeInt(int64_t(s.joins.size())));
    obj.Set("tables_hash", HexHash(s.tables_hash));
    arr.Append(std::move(obj));
  }
  resp->Set("models", std::move(arr));
  return Status::Ok();
}

Status ServeEngine::HandlePinModel(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string tenant,
                          req.GetString("tenant", "default"));
  AUTOBI_ASSIGN_OR_RETURN(const int64_t version, req.GetInt("version", 0));
  AUTOBI_ASSIGN_OR_RETURN(const bool pinned, req.GetBool("pinned", true));
  AUTOBI_RETURN_IF_ERROR(catalog_.Pin(tenant, version, pinned));
  resp->Set("version", Json::MakeInt(version));
  resp->Set("pinned", Json::MakeBool(pinned));
  return Status::Ok();
}

Status ServeEngine::HandleDiffModels(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string tenant,
                          req.GetString("tenant", "default"));
  AUTOBI_ASSIGN_OR_RETURN(const int64_t from, req.GetInt("from", 0));
  AUTOBI_ASSIGN_OR_RETURN(const int64_t to, req.GetInt("to", 0));
  AUTOBI_ASSIGN_OR_RETURN(const ModelDiff diff,
                          catalog_.Diff(tenant, from, to));
  resp->Set("added", JoinsToJson(diff.added));
  resp->Set("removed", JoinsToJson(diff.removed));
  return Status::Ok();
}

Status ServeEngine::HandleGetCatalogModel(const Json& req, Json* resp) {
  AUTOBI_ASSIGN_OR_RETURN(const std::string tenant,
                          req.GetString("tenant", "default"));
  AUTOBI_ASSIGN_OR_RETURN(const int64_t version, req.GetInt("version", 0));
  AUTOBI_ASSIGN_OR_RETURN(const ModelSnapshot snap,
                          catalog_.Get(tenant, version));
  resp->Set("version", Json::MakeInt(snap.version));
  resp->Set("label", Json::MakeString(snap.label));
  resp->Set("pinned", Json::MakeBool(snap.pinned));
  resp->Set("tables_hash", HexHash(snap.tables_hash));
  resp->Set("joins", JoinsToJson(snap.joins));
  return Status::Ok();
}

Status ServeEngine::HandleStats(const Json&, Json* resp) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    resp->Set("sessions", Json::MakeInt(int64_t(sessions_.size())));
  }
  resp->Set("requests", Json::MakeInt(requests_.load()));
  resp->Set("errors", Json::MakeInt(errors_.load()));
  resp->Set("predicts", Json::MakeInt(predicts_.load()));
  resp->Set("cache", CacheStatsToJson(cache_.GetStats()));
  const AdmissionGate::Stats gate = gate_.GetStats();
  Json admission = Json::MakeObject();
  admission.Set("inflight", Json::MakeInt(gate.inflight));
  admission.Set("queued", Json::MakeInt(gate.queued));
  admission.Set("admitted", Json::MakeInt(gate.admitted));
  admission.Set("rejected", Json::MakeInt(gate.rejected));
  admission.Set("queue_wait_total_seconds",
                Json::MakeDouble(gate.queue_wait_total_seconds));
  admission.Set("queue_wait_max_seconds",
                Json::MakeDouble(gate.queue_wait_max_seconds));
  admission.Set("max_inflight", Json::MakeInt(options_.max_inflight));
  admission.Set("max_queue", Json::MakeInt(options_.max_queue));
  resp->Set("admission", std::move(admission));
  Json blocking = Json::MakeObject();
  blocking.Set("column_pairs_pruned", Json::MakeInt(blocked_pairs_.load()));
  blocking.Set("column_pairs_admitted", Json::MakeInt(admitted_pairs_.load()));
  blocking.Set("components_solved", Json::MakeInt(components_solved_.load()));
  resp->Set("blocking", std::move(blocking));
  DurabilityStats dur = catalog_.durability();
  Json durability = Json::MakeObject();
  durability.Set("enabled", Json::MakeBool(dur.enabled));
  durability.Set("generation", Json::MakeInt(int64_t(dur.generation)));
  durability.Set("recovered_versions", Json::MakeInt(dur.recovered_versions));
  durability.Set("recovered_tenants", Json::MakeInt(dur.recovered_tenants));
  durability.Set("discarded_records", Json::MakeInt(dur.discarded_records));
  durability.Set("journal_records", Json::MakeInt(dur.journal_records));
  durability.Set("journal_commits", Json::MakeInt(dur.journal_commits));
  durability.Set("journal_errors", Json::MakeInt(dur.journal_errors));
  durability.Set("snapshots_written", Json::MakeInt(dur.snapshots_written));
  resp->Set("durability", std::move(durability));
  return Status::Ok();
}

Status ServeEngine::HandleShutdown(const Json&, Json* resp) {
  shutdown_.store(true, std::memory_order_release);
  // Flush-on-shutdown: the final commit barrier happens while the response
  // is still pending, so an acked shutdown implies durable state.
  Status flushed = FlushState();
  {
    // Called under the lock, so a transport that unregisters its callback
    // (SetShutdownCallback(nullptr)) waits for a call in flight and may then
    // close the descriptor the callback writes to.
    std::lock_guard<std::mutex> lock(hook_mu_);
    if (shutdown_callback_) shutdown_callback_();
  }
  resp->Set("shutting_down", Json::MakeBool(true));
  resp->Set("state_flushed", Json::MakeBool(flushed.ok()));
  return Status::Ok();
}

}  // namespace autobi

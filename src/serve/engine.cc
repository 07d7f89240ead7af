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
  if (inflight_ < max_inflight_) {
    ++inflight_;
    ++admitted_;
    return Status::Ok();
  }
  if (queued_ >= max_queue_) {
    ++rejected_;
    return Status::ResourceExhausted(StrFormat(
        "admission queue full (%d in flight, %d queued); retry with backoff",
        inflight_, queued_));
  }
  ++queued_;
  const auto wait_start = std::chrono::steady_clock::now();
  cv_.wait(lock, [this] { return inflight_ < max_inflight_; });
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    wait_start)
          .count();
  queue_wait_total_seconds_ += waited;
  if (waited > queue_wait_max_seconds_) queue_wait_max_seconds_ = waited;
  --queued_;
  ++inflight_;
  ++admitted_;
  return Status::Ok();
}

void AdmissionGate::Exit() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    --inflight_;
  }
  cv_.notify_one();
}

int AdmissionGate::inflight() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_;
}

int AdmissionGate::queued() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queued_;
}

int64_t AdmissionGate::rejected() const {
  std::lock_guard<std::mutex> lock(mu_);
  return rejected_;
}

int64_t AdmissionGate::admitted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return admitted_;
}

double AdmissionGate::queue_wait_total_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_wait_total_seconds_;
}

double AdmissionGate::queue_wait_max_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_wait_max_seconds_;
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

Json OkResponse(const Json& request) {
  Json resp = BeginResponse(&request);
  resp.Set("ok", Json::MakeBool(true));
  return resp;
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
  if (columns.size() != table->num_columns()) {
    return Status::InvalidInput(StrFormat(
        "delta has %zu columns, table '%s' has %zu", columns.size(),
        table->name().c_str(), table->num_columns()));
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
    if (col_name != table->column(i).name()) {
      return Status::InvalidInput(StrFormat(
          "delta column %zu is '%s', table has '%s' (append must keep the "
          "schema)",
          i, col_name.c_str(), table->column(i).name().c_str()));
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
  Json resp;
  try {
    if (!request.is_object()) {
      resp = MakeErrorResponse(
          nullptr, Status::InvalidInput("request must be a JSON object"));
    } else {
      StatusOr<std::string> verb =
          request.GetString("verb", std::string());
      if (!verb.ok()) {
        resp = MakeErrorResponse(&request, verb.status());
      } else if (verb->empty()) {
        resp = MakeErrorResponse(
            &request, Status::InvalidInput("request is missing 'verb'"));
      } else if (*verb == "ping") {
        resp = HandlePing(request);
      } else if (*verb == "create_session") {
        resp = HandleCreateSession(request);
      } else if (*verb == "close_session") {
        resp = HandleCloseSession(request);
      } else if (*verb == "upload_table") {
        resp = HandleUploadTable(request);
      } else if (*verb == "update_table") {
        resp = HandleUpdateTable(request);
      } else if (*verb == "predict") {
        resp = HandlePredict(request);
      } else if (*verb == "get_model") {
        resp = HandleGetModel(request);
      } else if (*verb == "diff") {
        resp = HandleDiff(request);
      } else if (*verb == "publish_model") {
        resp = HandlePublishModel(request);
      } else if (*verb == "list_models") {
        resp = HandleListModels(request);
      } else if (*verb == "pin_model") {
        resp = HandlePinModel(request);
      } else if (*verb == "diff_models") {
        resp = HandleDiffModels(request);
      } else if (*verb == "get_catalog_model") {
        resp = HandleGetCatalogModel(request);
      } else if (*verb == "stats") {
        resp = HandleStats(request);
      } else if (*verb == "shutdown") {
        resp = HandleShutdown(request);
      } else {
        resp = MakeErrorResponse(
            &request,
            Status::InvalidInput(StrFormat(
                "unknown verb '%s' (see SERVING.md for the protocol)",
                verb->c_str())));
      }
    }
  } catch (const std::exception& e) {
    // Service boundary: nothing escapes as an exception.
    resp = MakeErrorResponse(
        &request, Status::Internal(StrFormat("request failed: %s", e.what())));
  }
  const Json* ok = resp.Find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->AsBool()) ++errors_;
  return resp;
}

Json ServeEngine::HandlePing(const Json& req) {
  Json resp = OkResponse(req);
  resp.Set("pong", Json::MakeBool(true));
  return resp;
}

Json ServeEngine::HandleCreateSession(const Json& req) {
  StatusOr<std::string> tenant = req.GetString("tenant", "default");
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  std::lock_guard<std::mutex> lock(mu_);
  if (int(sessions_.size()) >= options_.max_sessions) {
    return MakeErrorResponse(
        &req, Status::ResourceExhausted(StrFormat(
                  "session limit reached (%d); close_session first",
                  options_.max_sessions)));
  }
  std::string id = StrFormat("s%lld", static_cast<long long>(next_session_++));
  Session session;
  session.tenant = *tenant;
  sessions_.emplace(id, std::move(session));
  Json resp = OkResponse(req);
  resp.Set("session", Json::MakeString(id));
  resp.Set("tenant", Json::MakeString(*tenant));
  return resp;
}

Json ServeEngine::HandleCloseSession(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  std::lock_guard<std::mutex> lock(mu_);
  if (sessions_.erase(*id) == 0) {
    return MakeErrorResponse(
        &req, Status::InvalidInput(
                  StrFormat("unknown session '%s'", id->c_str())));
  }
  return OkResponse(req);
}

StatusOr<ServeEngine::Session> ServeEngine::SnapshotSession(
    const std::string& session_id) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(session_id);
  if (it == sessions_.end()) {
    return Status::InvalidInput(
        StrFormat("unknown session '%s' (create_session first)",
                  session_id.c_str()));
  }
  return it->second;
}

Json ServeEngine::HandleUploadTable(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<std::string> name = req.GetString("name", std::string());
  if (!name.ok()) return MakeErrorResponse(&req, name.status());

  // Parse the table payload *outside* the session lock (CSV parsing can be
  // the expensive part of an upload).
  const Json* csv = req.Find("csv");
  const Json* columns = req.Find("columns");
  Table table;
  if (csv != nullptr && csv->is_string()) {
    CsvOptions csv_options;
    csv_options.max_bytes = options_.max_csv_bytes;
    std::string table_name = name->empty() ? "table" : *name;
    StatusOr<Table> parsed =
        ReadCsv(csv->AsString(), table_name, csv_options);
    if (!parsed.ok()) {
      return MakeErrorResponse(&req,
                               parsed.status().WithContext("upload_table"));
    }
    table = std::move(parsed).value();
  } else if (columns != nullptr && columns->is_array()) {
    if (name->empty()) {
      return MakeErrorResponse(
          &req, Status::InvalidInput("columns upload needs a 'name'"));
    }
    StatusOr<Table> built = TableFromColumnsJson(*name, *columns);
    if (!built.ok()) {
      return MakeErrorResponse(&req,
                               built.status().WithContext("upload_table"));
    }
    table = std::move(built).value();
  } else {
    return MakeErrorResponse(
        &req, Status::InvalidInput(
                  "upload_table needs 'csv' (string) or 'columns' (array)"));
  }

  const uint64_t content_hash = TableContentHash(table);
  const std::string table_name = table.name();
  const size_t table_rows = table.num_rows();
  const size_t table_cols = table.num_columns();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(*id);
  if (it == sessions_.end()) {
    return MakeErrorResponse(
        &req, Status::InvalidInput(
                  StrFormat("unknown session '%s'", id->c_str())));
  }
  Session& session = it->second;
  // Copy-on-write: re-uploading a name replaces that table, otherwise
  // append. Predicts running on the old snapshot are unaffected.
  auto next = std::make_shared<std::vector<Table>>(*session.tables);
  bool replaced = false;
  for (Table& t : *next) {
    if (t.name() == table.name()) {
      t = std::move(table);
      replaced = true;
      break;
    }
  }
  if (!replaced) {
    if (int(next->size()) >= options_.max_tables_per_session) {
      return MakeErrorResponse(
          &req, Status::ResourceExhausted(
                    StrFormat("session table limit reached (%d)",
                              options_.max_tables_per_session)));
    }
    next->push_back(std::move(table));
  }
  session.tables = std::move(next);

  Json resp = OkResponse(req);
  resp.Set("table", Json::MakeString(table_name));
  resp.Set("rows", Json::MakeInt(int64_t(table_rows)));
  resp.Set("columns", Json::MakeInt(int64_t(table_cols)));
  resp.Set("replaced", Json::MakeBool(replaced));
  resp.Set("content_hash",
           Json::MakeString(StrFormat("%016llx",
                                      static_cast<unsigned long long>(
                                          content_hash))));
  resp.Set("num_tables", Json::MakeInt(int64_t(session.tables->size())));
  return resp;
}

Json ServeEngine::HandleUpdateTable(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<std::string> name = req.GetString("name", std::string());
  if (!name.ok()) return MakeErrorResponse(&req, name.status());
  if (name->empty()) {
    return MakeErrorResponse(
        &req, Status::InvalidInput("update_table needs a 'name'"));
  }
  const Json* columns = req.Find("columns");
  if (columns == nullptr || !columns->is_array()) {
    return MakeErrorResponse(
        &req, Status::InvalidInput(
                  "update_table needs 'columns' (array of appended rows)"));
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = sessions_.find(*id);
  if (it == sessions_.end()) {
    return MakeErrorResponse(
        &req, Status::InvalidInput(
                  StrFormat("unknown session '%s'", id->c_str())));
  }
  Session& session = it->second;
  // Copy-on-write like upload_table: the append mutates a fresh copy, so a
  // shape/type error discards it and Predicts on the old snapshot are
  // unaffected. The committed table keeps its old rows byte-identical —
  // the incremental engine's diff classifies it as append-only.
  auto next = std::make_shared<std::vector<Table>>(*session.tables);
  Table* target = nullptr;
  for (Table& t : *next) {
    if (t.name() == *name) {
      target = &t;
      break;
    }
  }
  if (target == nullptr) {
    return MakeErrorResponse(
        &req, Status::InvalidInput(StrFormat(
                  "unknown table '%s' (upload_table first)", name->c_str())));
  }
  const size_t rows_before = target->num_rows();
  Status appended = AppendDeltaColumns(target, *columns);
  if (!appended.ok()) {
    return MakeErrorResponse(&req, appended.WithContext("update_table"));
  }
  const uint64_t content_hash = TableContentHash(*target);
  const size_t rows_after = target->num_rows();
  session.tables = std::move(next);

  Json resp = OkResponse(req);
  resp.Set("table", Json::MakeString(*name));
  resp.Set("rows_appended", Json::MakeInt(int64_t(rows_after - rows_before)));
  resp.Set("rows", Json::MakeInt(int64_t(rows_after)));
  resp.Set("content_hash",
           Json::MakeString(StrFormat("%016llx",
                                      static_cast<unsigned long long>(
                                          content_hash))));
  return resp;
}

Json ServeEngine::HandlePredict(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<std::string> tier_name = req.GetString("tier", "standard");
  if (!tier_name.ok()) return MakeErrorResponse(&req, tier_name.status());
  StatusOr<QosTier> tier = ParseQosTier(*tier_name);
  if (!tier.ok()) return MakeErrorResponse(&req, tier.status());
  StatusOr<std::string> mode_name = req.GetString("mode", "full");
  if (!mode_name.ok()) return MakeErrorResponse(&req, mode_name.status());
  StatusOr<AutoBiMode> mode = ParseMode(*mode_name);
  if (!mode.ok()) return MakeErrorResponse(&req, mode.status());
  // Opt-in delta path: diff against the session's previous incremental run
  // and recompute only what changed. Bit-identical joins/degradation to a
  // plain predict over the same tables; the response additionally carries
  // the "incremental" counters. Plain predicts keep the solve-memo
  // semantics (the delta path populates but never consults the memo).
  StatusOr<bool> incremental = req.GetBool("incremental", false);
  if (!incremental.ok()) return MakeErrorResponse(&req, incremental.status());

  QosPolicy policy = PolicyForTier(*tier);
  // Explicit per-request overrides on top of the tier defaults. Budgets are
  // deterministic and key the cache; the deadline does not.
  StatusOr<double> deadline =
      req.GetDouble("deadline_seconds", policy.deadline_seconds);
  if (!deadline.ok()) return MakeErrorResponse(&req, deadline.status());
  StatusOr<int64_t> max_rows = req.GetInt(
      "max_rows_per_table", int64_t(policy.budgets.max_rows_per_table));
  if (!max_rows.ok()) return MakeErrorResponse(&req, max_rows.status());
  StatusOr<int64_t> max_pairs = req.GetInt(
      "max_candidate_pairs", int64_t(policy.budgets.max_candidate_pairs));
  if (!max_pairs.ok()) return MakeErrorResponse(&req, max_pairs.status());
  StatusOr<int64_t> max_mca = req.GetInt(
      "max_one_mca_calls", int64_t(policy.budgets.max_one_mca_calls));
  if (!max_mca.ok()) return MakeErrorResponse(&req, max_mca.status());
  if (*deadline < 0 || *max_rows < 0 || *max_pairs < 0 || *max_mca < 0) {
    return MakeErrorResponse(
        &req,
        Status::InvalidInput("deadline and budget overrides must be >= 0"));
  }

  Status admitted = gate_.Enter();
  if (!admitted.ok()) return MakeErrorResponse(&req, admitted);
  GateGuard slot(&gate_);
  {
    std::function<void()> hook;
    {
      std::lock_guard<std::mutex> lock(hook_mu_);
      hook = predict_hold_hook_;
    }
    if (hook) hook();
  }

  StatusOr<Session> snapshot = SnapshotSession(*id);
  if (!snapshot.ok()) return MakeErrorResponse(&req, snapshot.status());
  std::shared_ptr<const std::vector<Table>> tables = snapshot->tables;
  if (tables->empty()) {
    return MakeErrorResponse(
        &req, Status::InvalidInput("session has no tables (upload_table "
                                   "first)"));
  }

  RunContext ctx;
  if (*deadline > 0) ctx.set_deadline_after(*deadline);
  ctx.budgets.max_rows_per_table = size_t(*max_rows);
  ctx.budgets.max_cells_per_table = policy.budgets.max_cells_per_table;
  ctx.budgets.max_candidate_pairs = size_t(*max_pairs);
  ctx.budgets.max_one_mca_calls = long(*max_mca);

  AutoBiOptions ab;
  ab.mode = *mode;
  ab.threads = options_.threads;
  ab.cache = &cache_;
  AutoBi predictor(model_, ab);
  ++predicts_;
  // Take the session's incremental state (if any) for exclusive use — the
  // engine must not share one state across concurrent calls. It goes back
  // on the session after the run, errors included (a failed run leaves the
  // state describing the last healthy one).
  std::shared_ptr<IncrementalState> inc_state;
  if (*incremental) {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(*id);
    if (it != sessions_.end()) inc_state = std::move(it->second.incremental);
    if (inc_state == nullptr) inc_state = std::make_shared<IncrementalState>();
  }
  StatusOr<AutoBiResult> result =
      *incremental ? predictor.PredictIncremental(*tables, &ctx, inc_state.get())
                   : predictor.Predict(*tables, &ctx);
  if (!result.ok()) {
    if (inc_state != nullptr) {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = sessions_.find(*id);
      if (it != sessions_.end()) it->second.incremental = std::move(inc_state);
    }
    return MakeErrorResponse(&req, result.status());
  }

  std::vector<NamedJoin> joins = NameJoins(*tables, result->model);

  // Record the prediction on the session (tolerating a concurrent close:
  // the response still carries the result).
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = sessions_.find(*id);
    if (it != sessions_.end()) {
      Session& session = it->second;
      if (session.has_predicted) {
        session.prev_joins = std::move(session.last_joins);
        session.has_previous = true;
      }
      session.last_joins = joins;
      session.has_predicted = true;
      session.last_model = result->model;
      session.last_tables = tables;
      if (inc_state != nullptr) session.incremental = std::move(inc_state);
    }
  }

  Json resp = OkResponse(req);
  resp.Set("session", Json::MakeString(*id));
  resp.Set("tier", Json::MakeString(QosTierName(*tier)));
  resp.Set("mode", Json::MakeString(*mode_name));
  resp.Set("num_tables", Json::MakeInt(int64_t(tables->size())));
  resp.Set("joins", JoinsToJson(joins));
  Json timing = Json::MakeObject();
  timing.Set("ucc_seconds", Json::MakeDouble(result->timing.ucc));
  timing.Set("ind_seconds", Json::MakeDouble(result->timing.ind));
  timing.Set("local_inference_seconds",
             Json::MakeDouble(result->timing.local_inference));
  timing.Set("global_predict_seconds",
             Json::MakeDouble(result->timing.global_predict));
  timing.Set("total_seconds", Json::MakeDouble(result->timing.Total()));
  timing.Set("threads", Json::MakeInt(result->timing.threads));
  resp.Set("timing", std::move(timing));
  if (*incremental) {
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
    resp.Set("incremental", std::move(inc));
  }
  // Lake-scale observability (PR 9): what the blocking stage pruned and how
  // the global solve partitioned. Cumulative engine-level sums feed the
  // stats verb.
  {
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
    resp.Set("blocking", std::move(blocking));
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
    resp.Set("partition", std::move(partition));
    blocked_pairs_ += int64_t(b.column_pairs_pruned);
    admitted_pairs_ += int64_t(b.column_pairs_admitted);
    components_solved_ += int64_t(result->partition.components_solved);
  }
  resp.Set("degraded", Json::MakeBool(result->degradation.Any()));
  if (result->degradation.Any()) {
    Json triggers = Json::MakeArray();
    for (const StageHealth* h :
         {&result->degradation.ucc, &result->degradation.ind,
          &result->degradation.local_inference,
          &result->degradation.global_predict}) {
      if (h->degraded) triggers.Append(Json::MakeString(h->trigger));
    }
    resp.Set("degradation", std::move(triggers));
  }
  resp.Set("cache", CacheStatsToJson(cache_.GetStats()));
  return resp;
}

Json ServeEngine::HandleGetModel(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<std::string> format = req.GetString("format", "json");
  if (!format.ok()) return MakeErrorResponse(&req, format.status());
  StatusOr<Session> snapshot = SnapshotSession(*id);
  if (!snapshot.ok()) return MakeErrorResponse(&req, snapshot.status());
  if (!snapshot->has_predicted) {
    return MakeErrorResponse(
        &req, Status::InvalidInput("session has no prediction yet (predict "
                                   "first)"));
  }
  const std::vector<Table>& tables = *snapshot->last_tables;
  StatusOr<std::string> content = Status::InvalidInput(
      StrFormat("unknown format '%s' (want json|dot|sql)", format->c_str()));
  if (*format == "json") {
    content = ExportJson(tables, snapshot->last_model);
  } else if (*format == "dot") {
    content = ExportDot(tables, snapshot->last_model);
  } else if (*format == "sql") {
    content = ExportSqlDdl(tables, snapshot->last_model);
  }
  if (!content.ok()) return MakeErrorResponse(&req, content.status());

  Json resp = OkResponse(req);
  resp.Set("format", Json::MakeString(*format));
  if (*format == "json") {
    // Embed the document as a JSON object so clients need not double-parse.
    StatusOr<Json> parsed = ParseJson(*content);
    if (!parsed.ok()) {
      return MakeErrorResponse(
          &req, Status::Internal("model export produced invalid JSON"));
    }
    resp.Set("model", std::move(*parsed));
  } else {
    resp.Set("content", Json::MakeString(*content));
  }
  return resp;
}

Json ServeEngine::HandleDiff(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<Session> snapshot = SnapshotSession(*id);
  if (!snapshot.ok()) return MakeErrorResponse(&req, snapshot.status());
  if (!snapshot->has_predicted) {
    return MakeErrorResponse(
        &req, Status::InvalidInput("session has no prediction yet (predict "
                                   "first)"));
  }
  // First prediction diffs against the empty model: everything is "added".
  ModelDiff diff = DiffJoinSets(snapshot->prev_joins, snapshot->last_joins);
  Json resp = OkResponse(req);
  resp.Set("against_previous", Json::MakeBool(snapshot->has_previous));
  resp.Set("added", JoinsToJson(diff.added));
  resp.Set("removed", JoinsToJson(diff.removed));
  return resp;
}

Json ServeEngine::HandlePublishModel(const Json& req) {
  StatusOr<std::string> id = req.GetString("session", std::string());
  if (!id.ok()) return MakeErrorResponse(&req, id.status());
  StatusOr<std::string> label = req.GetString("label", std::string());
  if (!label.ok()) return MakeErrorResponse(&req, label.status());
  StatusOr<Session> snapshot = SnapshotSession(*id);
  if (!snapshot.ok()) return MakeErrorResponse(&req, snapshot.status());
  if (!snapshot->has_predicted) {
    return MakeErrorResponse(
        &req, Status::InvalidInput("session has no prediction to publish"));
  }
  StatusOr<std::string> tenant = req.GetString("tenant", snapshot->tenant);
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  StatusOr<int64_t> version =
      catalog_.Publish(*tenant, *label, TablesContentHash(*snapshot->last_tables),
                       snapshot->last_joins);
  if (!version.ok()) return MakeErrorResponse(&req, version.status());
  Json resp = OkResponse(req);
  resp.Set("tenant", Json::MakeString(*tenant));
  resp.Set("version", Json::MakeInt(*version));
  return resp;
}

Json ServeEngine::HandleListModels(const Json& req) {
  StatusOr<std::string> tenant = req.GetString("tenant", "default");
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  Json resp = OkResponse(req);
  resp.Set("tenant", Json::MakeString(*tenant));
  Json arr = Json::MakeArray();
  for (const ModelSnapshot& s : catalog_.List(*tenant)) {
    Json obj = Json::MakeObject();
    obj.Set("version", Json::MakeInt(s.version));
    obj.Set("label", Json::MakeString(s.label));
    obj.Set("pinned", Json::MakeBool(s.pinned));
    obj.Set("num_joins", Json::MakeInt(int64_t(s.joins.size())));
    obj.Set("tables_hash",
            Json::MakeString(StrFormat(
                "%016llx", static_cast<unsigned long long>(s.tables_hash))));
    arr.Append(std::move(obj));
  }
  resp.Set("models", std::move(arr));
  return resp;
}

Json ServeEngine::HandlePinModel(const Json& req) {
  StatusOr<std::string> tenant = req.GetString("tenant", "default");
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  StatusOr<int64_t> version = req.GetInt("version", 0);
  if (!version.ok()) return MakeErrorResponse(&req, version.status());
  StatusOr<bool> pinned = req.GetBool("pinned", true);
  if (!pinned.ok()) return MakeErrorResponse(&req, pinned.status());
  Status status = catalog_.Pin(*tenant, *version, *pinned);
  if (!status.ok()) return MakeErrorResponse(&req, status);
  Json resp = OkResponse(req);
  resp.Set("version", Json::MakeInt(*version));
  resp.Set("pinned", Json::MakeBool(*pinned));
  return resp;
}

Json ServeEngine::HandleDiffModels(const Json& req) {
  StatusOr<std::string> tenant = req.GetString("tenant", "default");
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  StatusOr<int64_t> from = req.GetInt("from", 0);
  if (!from.ok()) return MakeErrorResponse(&req, from.status());
  StatusOr<int64_t> to = req.GetInt("to", 0);
  if (!to.ok()) return MakeErrorResponse(&req, to.status());
  StatusOr<ModelDiff> diff = catalog_.Diff(*tenant, *from, *to);
  if (!diff.ok()) return MakeErrorResponse(&req, diff.status());
  Json resp = OkResponse(req);
  resp.Set("added", JoinsToJson(diff->added));
  resp.Set("removed", JoinsToJson(diff->removed));
  return resp;
}

Json ServeEngine::HandleGetCatalogModel(const Json& req) {
  StatusOr<std::string> tenant = req.GetString("tenant", "default");
  if (!tenant.ok()) return MakeErrorResponse(&req, tenant.status());
  StatusOr<int64_t> version = req.GetInt("version", 0);
  if (!version.ok()) return MakeErrorResponse(&req, version.status());
  StatusOr<ModelSnapshot> snap = catalog_.Get(*tenant, *version);
  if (!snap.ok()) return MakeErrorResponse(&req, snap.status());
  Json resp = OkResponse(req);
  resp.Set("version", Json::MakeInt(snap->version));
  resp.Set("label", Json::MakeString(snap->label));
  resp.Set("pinned", Json::MakeBool(snap->pinned));
  resp.Set("tables_hash",
           Json::MakeString(StrFormat(
               "%016llx", static_cast<unsigned long long>(snap->tables_hash))));
  resp.Set("joins", JoinsToJson(snap->joins));
  return resp;
}

Json ServeEngine::HandleStats(const Json& req) {
  Json resp = OkResponse(req);
  {
    std::lock_guard<std::mutex> lock(mu_);
    resp.Set("sessions", Json::MakeInt(int64_t(sessions_.size())));
  }
  resp.Set("requests", Json::MakeInt(requests_.load()));
  resp.Set("errors", Json::MakeInt(errors_.load()));
  resp.Set("predicts", Json::MakeInt(predicts_.load()));
  resp.Set("cache", CacheStatsToJson(cache_.GetStats()));
  Json admission = Json::MakeObject();
  admission.Set("inflight", Json::MakeInt(gate_.inflight()));
  admission.Set("queued", Json::MakeInt(gate_.queued()));
  admission.Set("admitted", Json::MakeInt(gate_.admitted()));
  admission.Set("rejected", Json::MakeInt(gate_.rejected()));
  admission.Set("queue_wait_total_seconds",
                Json::MakeDouble(gate_.queue_wait_total_seconds()));
  admission.Set("queue_wait_max_seconds",
                Json::MakeDouble(gate_.queue_wait_max_seconds()));
  admission.Set("max_inflight", Json::MakeInt(options_.max_inflight));
  admission.Set("max_queue", Json::MakeInt(options_.max_queue));
  resp.Set("admission", std::move(admission));
  Json blocking = Json::MakeObject();
  blocking.Set("column_pairs_pruned", Json::MakeInt(blocked_pairs_.load()));
  blocking.Set("column_pairs_admitted", Json::MakeInt(admitted_pairs_.load()));
  blocking.Set("components_solved", Json::MakeInt(components_solved_.load()));
  resp.Set("blocking", std::move(blocking));
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
  resp.Set("durability", std::move(durability));
  return resp;
}

Json ServeEngine::HandleShutdown(const Json& req) {
  shutdown_.store(true, std::memory_order_release);
  // Flush-on-shutdown: the final commit barrier happens while the response
  // is still pending, so an acked shutdown implies durable state.
  Status flushed = FlushState();
  std::function<void()> callback;
  {
    std::lock_guard<std::mutex> lock(hook_mu_);
    callback = shutdown_callback_;
  }
  if (callback) callback();
  Json resp = OkResponse(req);
  resp.Set("shutting_down", Json::MakeBool(true));
  resp.Set("state_flushed", Json::MakeBool(flushed.ok()));
  return resp;
}

}  // namespace autobi

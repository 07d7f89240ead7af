// Input generation for the three workloads. Every session gets content no
// earlier session had, so its first predict is cold in every cache the
// daemon keeps (the driver verifies this through the `stats` verb).

#include <algorithm>
#include <cmath>
#include <numeric>
#include <string>
#include <string_view>
#include <unordered_set>

#include "common/parallel.h"
#include "common/rng.h"
#include "perfbench.h"
#include "profile/sketch.h"
#include "synth/bi_generator.h"
#include "synth/lake.h"
#include "synth/tpch_ddl.h"
#include "table/csv.h"

namespace autobi::perfbench {
namespace {

constexpr size_t kAppendRows = 200;
// star_session derives every session from one fixed case (12 tables, 76k
// rows, 4.4 MB of CSV): GenerateBiCase takes seconds per case at this size,
// too slow to run once per session, and cases of different sizes would make
// the latency distribution multimodal, so its median would jump between
// modes from run to run. Each session permutes the rows of every table,
// which changes every content hash; the run seed picks the row orders and
// the appended rows.
constexpr uint64_t kStarCaseSeed = 101;

void CopyCell(const Column& src, size_t row, Column* dst) {
  if (src.IsNull(row)) {
    dst->AppendNull();
    return;
  }
  switch (src.type()) {
    case ValueType::kInt:
      dst->AppendInt(src.Int(row));
      break;
    case ValueType::kDouble:
      dst->AppendDouble(src.Double(row));
      break;
    case ValueType::kString:
      dst->AppendString(src.Str(row));
      break;
    case ValueType::kNull:
      dst->AppendNull();
      break;
  }
}

Json CellJson(const Column& col, size_t row) {
  if (col.IsNull(row)) return Json();
  switch (col.type()) {
    case ValueType::kInt:
      return Json::MakeInt(col.Int(row));
    case ValueType::kDouble:
      return Json::MakeDouble(col.Double(row));
    case ValueType::kString:
      return Json::MakeString(col.Str(row));
    case ValueType::kNull:
      break;
  }
  return Json();
}

// True when every cell is non-null and distinct.
bool IsKeyColumn(const Column& col) {
  if (col.num_null() > 0 || col.type() == ValueType::kNull) return false;
  std::unordered_set<std::string> seen;
  std::string key;
  for (size_t r = 0; r < col.size(); ++r) {
    col.KeyAt(r, &key);
    if (!seen.insert(key).second) return false;
  }
  return true;
}

// kAppendRows fresh values for key column `col`: above every existing
// number, or strings no existing cell has (existing cells carry no '#').
std::vector<Json> FreshKeys(const Column& col) {
  std::vector<Json> out;
  for (size_t k = 0; k < kAppendRows; ++k) {
    if (col.type() == ValueType::kString) {
      out.push_back(Json::MakeString(col.Str(k % col.size()) + "#" +
                                     std::to_string(k)));
    }
  }
  if (!out.empty()) return out;
  double max = col.AsDouble(0);
  for (size_t r = 1; r < col.size(); ++r) max = std::max(max, col.AsDouble(r));
  for (size_t k = 0; k < kAppendRows; ++k) {
    double v = std::floor(max) + 1.0 + double(k);
    out.push_back(col.type() == ValueType::kInt ? Json::MakeInt(int64_t(v))
                                                : Json::MakeDouble(v));
  }
  return out;
}

Table PermuteRows(const Table& table, Rng& rng) {
  std::vector<size_t> order(table.num_rows());
  std::iota(order.begin(), order.end(), size_t{0});
  rng.Shuffle(order);
  Table out(table.name());
  for (const Column& col : table.columns()) {
    Column& dst = out.AddColumn(col.name(), col.type());
    for (size_t r : order) CopyCell(col, r, &dst);
  }
  return out;
}

CsvOptions DaemonCsvOptions() {
  CsvOptions options;
  options.max_bytes = size_t{64} << 20;  // ServeOptions::max_csv_bytes.
  return options;
}

// Applies an update_table delta the way the daemon's AppendJsonCell does:
// numbers take the column's established type, strings stay strings.
void ApplyAppend(Table* table, const Json& columns) {
  for (size_t c = 0; c < table->num_columns() && c < columns.size(); ++c) {
    Column& col = table->column(c);
    const Json* values = columns.at(c).Find("values");
    if (values == nullptr) continue;
    for (size_t r = 0; r < values->size(); ++r) {
      const Json& v = values->at(r);
      if (v.is_string()) {
        col.AppendString(v.AsString());
      } else if (!v.is_number()) {
        col.AppendNull();
      } else if (col.type() == ValueType::kDouble) {
        col.AppendDouble(v.AsDouble());
      } else if (col.type() == ValueType::kInt ||
                 v.AsDouble() == double(v.AsInt())) {
        col.AppendInt(v.AsInt());
      } else {
        col.AppendDouble(v.AsDouble());
      }
    }
  }
}

// Seed of session `index`: a pure function of the run seed.
uint64_t SessionSeed(uint64_t seed, size_t index) {
  return SplitMix64(SplitMix64(seed) ^ (0x9E3779B97F4A7C15ULL * (index + 1)));
}

// A generated case turned into upload payloads once; sessions derive from
// it (star_session derives many sessions from one case).
struct PreparedCase {
  BiModel ground_truth;
  std::vector<TableInput> uploads;
  size_t target = 0;                  // The largest table: the append target.
  Table parsed_target;                // As the daemon parses it.
  std::vector<std::vector<Json>> fresh;  // Per column; empty unless a key.
};

PreparedCase Prepare(const BiCase& bi_case) {
  PreparedCase p;
  p.ground_truth = bi_case.ground_truth;
  for (size_t i = 0; i < bi_case.tables.size(); ++i) {
    const Table& t = bi_case.tables[i];
    p.uploads.push_back({t.name(), WriteCsv(t)});
    if (t.num_rows() > bi_case.tables[p.target].num_rows()) p.target = i;
  }
  if (p.uploads.empty()) return p;
  const TableInput& target = p.uploads[p.target];
  StatusOr<Table> parsed = ReadCsv(target.csv, target.name, DaemonCsvOptions());
  if (parsed.ok()) p.parsed_target = std::move(parsed).value();
  for (const Column& col : p.parsed_target.columns()) {
    p.fresh.push_back(IsKeyColumn(col) ? FreshKeys(col) : std::vector<Json>{});
  }
  return p;
}

// The CSV with its data rows in a random order (header first). Falls back
// to re-serializing the parsed table when a quoted field could span lines.
std::string PermuteCsvRows(const TableInput& t, Rng& rng) {
  if (t.csv.find('"') != std::string::npos) {
    StatusOr<Table> parsed = ReadCsv(t.csv, t.name, DaemonCsvOptions());
    return parsed.ok() ? WriteCsv(PermuteRows(*parsed, rng)) : t.csv;
  }
  std::vector<std::string_view> lines;
  std::string_view text = t.csv;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) nl = text.size();
    lines.push_back(text.substr(pos, nl - pos));
    pos = nl + 1;
  }
  if (lines.size() < 3) return t.csv;
  std::vector<size_t> order(lines.size() - 1);
  std::iota(order.begin(), order.end(), size_t{1});
  rng.Shuffle(order);
  std::string out;
  out.reserve(t.csv.size());
  out.append(lines[0]).push_back('\n');
  for (size_t i : order) out.append(lines[i]).push_back('\n');
  return out;
}

// One session's payloads. The appended rows copy whole source rows of the
// largest table, except that a column whose values are all distinct (a
// key) gets fresh values past its maximum, the way new rows get new
// surrogate keys: keys stay keys across the append.
SessionInput Derive(const PreparedCase& p, Rng& rng, bool permute_rows) {
  SessionInput s;
  s.ground_truth = p.ground_truth;
  for (const TableInput& t : p.uploads) {
    s.uploads.push_back(
        {t.name, permute_rows ? PermuteCsvRows(t, rng) : t.csv});
  }
  s.append_columns = Json::MakeArray();
  const Table& target = p.parsed_target;
  s.append_table = target.name();
  if (target.num_rows() == 0) return s;
  std::vector<size_t> rows;
  for (size_t k = 0; k < kAppendRows; ++k) {
    rows.push_back(size_t(rng.NextBelow(target.num_rows())));
  }
  for (size_t c = 0; c < target.num_columns(); ++c) {
    const Column& col = target.column(c);
    Json values = Json::MakeArray();
    if (p.fresh[c].empty()) {
      for (size_t r : rows) values.Append(CellJson(col, r));
    } else {
      for (const Json& v : p.fresh[c]) values.Append(v);
    }
    Json obj = Json::MakeObject();
    obj.Set("name", Json::MakeString(col.name()));
    obj.Set("values", std::move(values));
    s.append_columns.Append(std::move(obj));
  }
  return s;
}

}  // namespace

bool LookupWorkload(const std::string& name, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  if (name == "star_session") {
    s.clients = 2;
    s.daemon_threads = 2;
    s.cold_incremental = true;
    s.pool_per_second = 6.0;
    s.rss_round = 16;
  } else if (name == "lake_session") {
    s.clients = 1;
    s.daemon_threads = 4;
    s.pool_per_second = 1.5;
    s.rss_round = 7;
  } else if (name == "tpch_keys") {
    s.clients = 2;
    s.daemon_threads = 2;
    s.cold_incremental = true;
    s.pool_per_second = 2.0;
    s.rss_round = 5;
  } else {
    return false;
  }
  *spec = s;
  return true;
}

std::vector<SessionInput> GenerateSessions(const WorkloadSpec& spec,
                                           uint64_t seed, size_t count,
                                           int threads) {
  PreparedCase star_case;
  if (spec.name == "star_session") {
    Rng rng(kStarCaseSeed);
    BiGenOptions o;
    o.num_tables = 12;
    o.min_dim_rows = 1500;
    o.max_dim_rows = 2500;
    o.min_fact_rows = 15000;
    o.max_fact_rows = 25000;
    star_case = Prepare(GenerateBiCase(o, rng));
  }
  return ParallelMap(
      count,
      [&](size_t i) {
        Rng rng(SessionSeed(seed, i));
        if (spec.name == "star_session") {
          return Derive(star_case, rng, /*permute_rows=*/true);
        }
        BiCase bi_case;
        if (spec.name == "lake_session") {
          LakeGenOptions o;
          o.num_tables = 250;  // Under the daemon's 256-table session cap.
          bi_case = GenerateLake(o, rng);
        } else {
          StatusOr<BiCase> tpch = GenerateTpchFromDdl(4.0, rng);
          if (tpch.ok()) bi_case = std::move(tpch).value();
        }
        return Derive(Prepare(bi_case), rng, /*permute_rows=*/false);
      },
      threads);
}

std::vector<ScriptStep> SessionScript(const WorkloadSpec& spec,
                                      const SessionInput& input, int client) {
  auto step = [](const char* verb, const char* phase) {
    ScriptStep s{verb, phase, Json::MakeObject()};
    s.request.Set("verb", Json::MakeString(verb));
    return s;
  };
  std::vector<ScriptStep> script;
  script.push_back(step("create_session", ""));
  script.back().request.Set("tenant",
                            Json::MakeString("bench-" + std::to_string(client)));
  for (const TableInput& t : input.uploads) {
    script.push_back(step("upload_table", ""));
    script.back().request.Set("name", Json::MakeString(t.name));
    script.back().request.Set("csv", Json::MakeString(t.csv));
  }
  script.push_back(step("predict", "cold"));
  if (spec.cold_incremental) {
    script.back().request.Set("incremental", Json::MakeBool(true));
  }
  script.push_back(step("predict", "warm"));
  script.push_back(step("update_table", ""));
  script.back().request.Set("name", Json::MakeString(input.append_table));
  script.back().request.Set("columns", input.append_columns);
  script.push_back(step("predict", "delta"));
  script.back().request.Set("incremental", Json::MakeBool(true));
  script.push_back(step("publish_model", ""));
  script.back().request.Set("label", Json::MakeString("bench"));
  script.push_back(step("get_model", ""));
  script.push_back(step("close_session", ""));
  return script;
}

std::vector<Table> ParseSessionTables(const SessionInput& session) {
  std::vector<Table> tables;
  tables.reserve(session.uploads.size());
  for (const TableInput& t : session.uploads) {
    StatusOr<Table> parsed = ReadCsv(t.csv, t.name, DaemonCsvOptions());
    tables.push_back(parsed.ok() ? std::move(parsed).value() : Table(t.name));
  }
  return tables;
}

std::vector<Table> WithAppend(const std::vector<Table>& tables,
                              const SessionInput& session) {
  std::vector<Table> out = tables;
  for (Table& t : out) {
    if (t.name() == session.append_table) {
      ApplyAppend(&t, session.append_columns);
    }
  }
  return out;
}

}  // namespace autobi::perfbench

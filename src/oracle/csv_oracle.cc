#include "oracle/csv_oracle.h"

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <vector>

#include "common/strings.h"
#include "table/value.h"

namespace autobi {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

std::string_view OracleTrim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return s.substr(b, e - b);
}

bool OracleParseInt64(std::string_view s, int64_t* out) {
  s = OracleTrim(s);
  if (s.empty() || s.size() > 30) return false;
  char buf[32];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  long long v = std::strtoll(buf, &end, 10);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = static_cast<int64_t>(v);
  return true;
}

bool OracleParseDouble(std::string_view s, double* out) {
  s = OracleTrim(s);
  if (s.empty() || s.size() > 60) return false;
  char buf[64];
  std::memcpy(buf, s.data(), s.size());
  buf[s.size()] = '\0';
  char* end = nullptr;
  errno = 0;
  double v = std::strtod(buf, &end);
  if (errno != 0 || end != buf + s.size()) return false;
  *out = v;
  return true;
}

ValueType OracleInferValueType(std::string_view s) {
  std::string_view t = OracleTrim(s);
  if (t.empty()) return ValueType::kNull;
  int64_t i;
  if (OracleParseInt64(t, &i)) return ValueType::kInt;
  double d;
  if (OracleParseDouble(t, &d)) return ValueType::kDouble;
  return ValueType::kString;
}

void OracleAppendParsed(Column& column, std::string_view cell) {
  std::string_view t = OracleTrim(cell);
  if (t.empty()) {
    column.AppendNull();
    return;
  }
  switch (column.type()) {
    case ValueType::kInt: {
      int64_t v;
      if (OracleParseInt64(t, &v)) {
        column.AppendInt(v);
      } else {
        column.AppendNull();
      }
      return;
    }
    case ValueType::kDouble: {
      double v;
      if (OracleParseDouble(t, &v)) {
        column.AppendDouble(v);
      } else {
        column.AppendNull();
      }
      return;
    }
    case ValueType::kString:
    case ValueType::kNull:
      column.AppendString(std::string(t));
      return;
  }
}

// Splits CSV text into rows of fields, honoring quotes. Errors on an
// unterminated quoted field.
Status ParseCsvCells(std::string_view text,
                     std::vector<std::vector<std::string>>* rows) {
  rows->clear();
  std::vector<std::string> row;
  std::string field;
  bool in_quotes = false;
  bool field_started = false;
  size_t i = 0;
  auto end_field = [&]() {
    row.push_back(field);
    field.clear();
    field_started = false;
  };
  auto end_row = [&]() {
    end_field();
    // Skip rows that are entirely empty (e.g. trailing newline).
    bool all_empty = true;
    for (const auto& f : row) {
      if (!f.empty()) {
        all_empty = false;
        break;
      }
    }
    if (!(row.size() == 1 && all_empty)) rows->push_back(row);
    row.clear();
  };
  while (i < text.size()) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field += '"';
          i += 2;
          continue;
        }
        in_quotes = false;
        ++i;
        continue;
      }
      field += c;
      ++i;
      continue;
    }
    switch (c) {
      case '"':
        if (!field_started || field.empty()) {
          in_quotes = true;
          field_started = true;
        } else {
          field += c;  // Stray quote mid-field: keep it verbatim.
        }
        ++i;
        break;
      case ',':
        end_field();
        ++i;
        break;
      case '\r':
        ++i;  // Tolerate CRLF (and stray CR).
        break;
      case '\n':
        end_row();
        ++i;
        break;
      default:
        field += c;
        field_started = true;
        ++i;
        break;
    }
  }
  if (in_quotes) {
    return Status::InvalidInput("unterminated quoted field");
  }
  if (field_started || !field.empty() || !row.empty()) end_row();
  return Status::Ok();
}

}  // namespace

StatusOr<Table> ReadCsvOracle(std::string_view text, std::string table_name,
                              const CsvOptions& options, CsvStats* stats) {
  CsvStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = CsvStats{};
  if (options.max_bytes > 0 && text.size() > options.max_bytes) {
    return Status::ResourceExhausted(
        StrFormat("CSV input is %zu bytes, over the %zu-byte cap", text.size(),
                  options.max_bytes));
  }
  if (StartsWith(text, kUtf8Bom)) {
    text.remove_prefix(kUtf8Bom.size());
    stats->had_bom = true;
  }
  std::vector<std::vector<std::string>> rows;
  AUTOBI_RETURN_IF_ERROR(ParseCsvCells(text, &rows));
  if (rows.empty()) {
    return Status::InvalidInput("empty CSV input");
  }
  const std::vector<std::string>& header = rows[0];
  size_t width = header.size();
  for (size_t r = 1; r < rows.size(); ++r) {
    if (rows[r].size() == width) continue;
    if (!options.lenient) {
      return Status::InvalidInput(StrFormat(
          "row %zu has %zu fields, expected %zu", r, rows[r].size(), width));
    }
    if (rows[r].size() < width) {
      rows[r].resize(width);  // Pad with empty cells (become nulls).
      ++stats->ragged_rows_padded;
    } else {
      rows[r].resize(width);
      ++stats->ragged_rows_truncated;
    }
  }
  // Infer each column's type across all data rows.
  std::vector<ValueType> types(width, ValueType::kNull);
  for (size_t r = 1; r < rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      types[c] = UnifyValueTypes(types[c], OracleInferValueType(rows[r][c]));
    }
  }
  Table out(std::move(table_name));
  for (size_t c = 0; c < width; ++c) {
    ValueType t = types[c] == ValueType::kNull ? ValueType::kString : types[c];
    out.AddColumn(header[c], t);
  }
  for (size_t r = 1; r < rows.size(); ++r) {
    for (size_t c = 0; c < width; ++c) {
      OracleAppendParsed(out.column(c), rows[r][c]);
    }
  }
  return out;
}

}  // namespace autobi

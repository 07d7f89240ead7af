#include "table/csv.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <vector>

#include "common/strings.h"
#include "fuzz/faultpoints.h"
#include "table/value.h"

namespace autobi {

namespace {

constexpr std::string_view kUtf8Bom = "\xEF\xBB\xBF";

// Splits CSV text into records of fields, one record at a time. A field is
// a view into the text unless its record holds a quote or a CR that is not
// the line's last byte; such a record is decoded into a scratch buffer,
// which the views then point into until the next call.
//
// Decoding rules: a '"' opens quoting only at the start of an empty field
// (mid-field it is a literal byte, and text after a closing quote joins the
// field); '""' inside quotes is one '"'; a CR outside quotes is dropped
// wherever it occurs; a record that is exactly one empty field is skipped.
class CsvRecords {
 public:
  explicit CsvRecords(std::string_view text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  // Reads the next record into *fields. Returns false at the end of the
  // input, or when it ends inside a quoted field (unterminated_quote()).
  bool Next(std::vector<std::string_view>* fields) {
    while (p_ != end_) {
      const char* nl =
          static_cast<const char*>(std::memchr(p_, '\n', size_t(end_ - p_)));
      const char* line_end = nl != nullptr ? nl : end_;
      const char* next = nl != nullptr ? nl + 1 : end_;
      size_t len = size_t(line_end - p_);
      if (len > 0 && p_[len - 1] == '\r') --len;  // CRLF.
      if (std::memchr(p_, '"', len) != nullptr ||
          std::memchr(p_, '\r', len) != nullptr) {
        if (!DecodeRecord(fields)) return false;
        if (fields->size() == 1 && fields->front().empty()) continue;
        return true;
      }
      const char* field = p_;
      const char* const stop = p_ + len;
      p_ = next;
      if (len == 0) continue;  // A blank or CR-only line.
      fields->clear();
      while (true) {
        const char* comma = static_cast<const char*>(
            std::memchr(field, ',', size_t(stop - field)));
        if (comma == nullptr) break;
        fields->emplace_back(field, size_t(comma - field));
        field = comma + 1;
      }
      fields->emplace_back(field, size_t(stop - field));
      return true;
    }
    return false;
  }

  bool unterminated_quote() const { return unterminated_quote_; }

 private:
  // Decodes one record starting at p_, through its unquoted '\n' or the
  // end of the input, into scratch_.
  bool DecodeRecord(std::vector<std::string_view>* fields) {
    scratch_.clear();
    ends_.clear();
    bool in_quotes = false;
    const char* p = p_;
    while (p != end_) {
      if (in_quotes) {
        const char* quote =
            static_cast<const char*>(std::memchr(p, '"', size_t(end_ - p)));
        if (quote == nullptr) break;
        scratch_.append(p, size_t(quote - p));
        p = quote + 1;
        if (p != end_ && *p == '"') {
          scratch_.push_back('"');
          ++p;
        } else {
          in_quotes = false;
        }
        continue;
      }
      const char c = *p++;
      if (c == '\n') break;
      switch (c) {
        case '"':
          if (scratch_.size() == FieldStart()) {
            in_quotes = true;
          } else {
            scratch_.push_back(c);
          }
          break;
        case ',':
          ends_.push_back(scratch_.size());
          break;
        case '\r':
          break;
        default:
          scratch_.push_back(c);
          break;
      }
    }
    if (in_quotes) {
      unterminated_quote_ = true;
      p_ = end_;
      return false;
    }
    p_ = p;
    ends_.push_back(scratch_.size());
    fields->clear();
    size_t begin = 0;
    for (size_t e : ends_) {
      fields->emplace_back(scratch_.data() + begin, e - begin);
      begin = e;
    }
    return true;
  }

  size_t FieldStart() const { return ends_.empty() ? 0 : ends_.back(); }

  const char* p_;
  const char* end_;
  bool unterminated_quote_ = false;
  std::string scratch_;
  std::vector<size_t> ends_;  // End offset in scratch_ of each field.
};

}  // namespace

// Two streaming passes over the text keep no per-cell state: the first
// validates the record shapes, infers each column's type and counts rows;
// the second appends every cell straight into its typed column.
StatusOr<Table> ReadCsv(std::string_view text, std::string table_name,
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

  std::vector<std::string_view> fields;
  std::vector<std::string> header;
  std::vector<ValueType> types;
  size_t rows = 0;
  size_t padded = 0;
  size_t truncated = 0;
  // A strict-mode ragged row is reported only once the whole input has
  // tokenized, because an unterminated quote anywhere takes precedence.
  Status ragged;
  CsvRecords records(text);
  while (records.Next(&fields)) {
    if (header.empty()) {
      header.assign(fields.begin(), fields.end());
      types.assign(header.size(), ValueType::kNull);
      continue;
    }
    ++rows;
    if (!ragged.ok()) continue;
    const size_t width = header.size();
    if (fields.size() != width) {
      if (!options.lenient) {
        ragged = Status::InvalidInput(StrFormat(
            "row %zu has %zu fields, expected %zu", rows, fields.size(),
            width));
        continue;
      }
      ++(fields.size() < width ? padded : truncated);
    }
    const size_t n = std::min(fields.size(), width);
    for (size_t c = 0; c < n; ++c) {
      if (types[c] == ValueType::kString) continue;
      types[c] = UnifyValueTypes(types[c], InferValueType(fields[c]));
    }
  }
  if (records.unterminated_quote()) {
    return Status::InvalidInput("unterminated quoted field");
  }
  if (header.empty()) return Status::InvalidInput("empty CSV input");
  AUTOBI_RETURN_IF_ERROR(ragged);
  stats->ragged_rows_padded = padded;
  stats->ragged_rows_truncated = truncated;

  Table out(std::move(table_name));
  const size_t width = header.size();
  std::vector<Column*> columns(width);
  for (size_t c = 0; c < width; ++c) {
    ValueType t = types[c] == ValueType::kNull ? ValueType::kString : types[c];
    columns[c] = &out.AddColumn(std::move(header[c]), t);
    // Exact capacity: growth by doubling would leave up to half of each
    // column's storage unused for the life of the table.
    columns[c]->Reserve(rows);
  }
  CsvRecords again(text);
  again.Next(&fields);  // The header.
  while (again.Next(&fields)) {
    const size_t n = std::min(fields.size(), width);
    for (size_t c = 0; c < n; ++c) columns[c]->AppendParsed(fields[c]);
    for (size_t c = n; c < width; ++c) columns[c]->AppendNull();
  }
  return out;
}

StatusOr<Table> ReadCsvFile(const std::string& path, const CsvOptions& options,
                            CsvStats* stats) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in || FaultPoints::Global().Fire("io.open")) {
    return Status::Internal("cannot open " + path);
  }
  std::streamoff size = in.tellg();
  if (size < 0) {
    return Status::Internal("cannot determine size of " + path);
  }
  // Reject oversized files before buffering a single byte.
  if (options.max_bytes > 0 && size_t(size) > options.max_bytes) {
    return Status::ResourceExhausted(
        StrFormat("%s is %lld bytes, over the %zu-byte cap", path.c_str(),
                  static_cast<long long>(size), options.max_bytes));
  }
  in.seekg(0, std::ios::beg);
  std::string bytes(size_t(size), '\0');
  if (size > 0 && !in.read(bytes.data(), size)) {
    return Status::Internal("read failed for " + path);
  }
  if (FaultPoints::Global().Fire("io.short_read")) {
    bytes.resize(size_t(double(bytes.size()) *
                        FaultPoints::Global().Fraction("io.short_read")));
  }
  std::string name = path;
  size_t slash = name.find_last_of('/');
  if (slash != std::string::npos) name = name.substr(slash + 1);
  if (EndsWith(name, ".csv")) name = name.substr(0, name.size() - 4);
  StatusOr<Table> table = ReadCsv(bytes, name, options, stats);
  if (!table.ok()) return table.status().WithContext("read " + path);
  return table;
}

namespace {

// Quotes a field if it contains separators, quotes or newlines.
std::string CsvQuote(const std::string& s) {
  bool needs = s.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += "\"";
  return out;
}

}  // namespace

std::string WriteCsv(const Table& table) {
  std::string out;
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c > 0) out += ",";
    out += CsvQuote(table.column(c).name());
  }
  out += "\n";
  std::string key;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c > 0) out += ",";
      if (table.column(c).KeyAt(r, &key)) out += CsvQuote(key);
    }
    out += "\n";
  }
  return out;
}

}  // namespace autobi

#ifndef AUTOBI_TABLE_CSV_H_
#define AUTOBI_TABLE_CSV_H_

#include <cstddef>
#include <string>
#include <string_view>

#include "common/status.h"
#include "table/table.h"

namespace autobi {

// Minimal RFC-4180-style CSV support so users can feed their own tables to
// Auto-BI (see examples/quickstart.cc). Quoted fields with embedded commas,
// quotes ("" escaping) and newlines are handled; a leading UTF-8 BOM and
// CRLF line endings are tolerated. Types are inferred from the data: a
// column is int/double only if every non-empty cell parses.
//
// The rules in full: a CR outside quotes is dropped wherever it occurs; a
// '"' opens quoting only at the start of an empty field (mid-field it is a
// literal byte, and text after a closing quote joins the field); a record
// that is exactly one empty field (a blank, CR-only or ""-only line) is
// skipped. Cells, but not header names, are isspace-trimmed before type
// inference and storage; an empty cell is null, and a column of nulls is a
// string column. Ints and doubles are what ParseInt64 and ParseDouble
// (common/strings.h) accept, i.e. the strtoll and strtod verdicts.
//
// ReadCsv makes two streaming passes and keeps no per-cell state: the first
// tokenizes (fields are views into the text; only quoted or CR-bearing
// records are unescaped into a scratch buffer), checks record shapes,
// infers types and counts rows, the second appends typed values straight
// into columns reserved to exactly that many rows.
// Its tables, CsvStats and errors are bit-identical to those of the
// reference reader in src/oracle/csv_oracle.cc, which
// tests/csv_oracle_test.cc checks.
//
// This is an untrusted-input surface: all entry points return a typed
// Status (common/status.h) instead of aborting, whatever the bytes are.

struct CsvOptions {
  // Inputs larger than this many bytes are rejected with kResourceExhausted
  // before any buffering happens (ReadCsvFile checks the file size up
  // front). 0 disables the cap.
  size_t max_bytes = size_t{512} << 20;  // 512 MiB.
  // Strict mode (default) rejects ragged rows with kInvalidInput. Lenient
  // mode pads short rows with nulls and truncates long rows to the header
  // width, counting the repairs in CsvStats.
  bool lenient = false;
};

// Per-load observability: what the reader tolerated or repaired.
struct CsvStats {
  bool had_bom = false;
  size_t ragged_rows_padded = 0;
  size_t ragged_rows_truncated = 0;
  size_t Warnings() const { return ragged_rows_padded + ragged_rows_truncated; }
};

// Parses CSV text (first row = header) into a Table. Errors: kInvalidInput
// on malformed input (ragged rows in strict mode, unterminated quote, empty
// input; an unterminated quote wins over a ragged row), kResourceExhausted
// past options.max_bytes.
StatusOr<Table> ReadCsv(std::string_view text, std::string table_name,
                        const CsvOptions& options = {},
                        CsvStats* stats = nullptr);

// Reads a CSV file; the table name defaults to the basename without ".csv".
// Adds kInternal for I/O failures (cannot open / read failure).
StatusOr<Table> ReadCsvFile(const std::string& path,
                            const CsvOptions& options = {},
                            CsvStats* stats = nullptr);

// Serializes a table as CSV (header + rows; nulls render as empty fields).
std::string WriteCsv(const Table& table);

}  // namespace autobi

#endif  // AUTOBI_TABLE_CSV_H_

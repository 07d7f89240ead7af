#ifndef AUTOBI_ORACLE_CSV_ORACLE_H_
#define AUTOBI_ORACLE_CSV_ORACLE_H_

#include <string>
#include <string_view>

#include "common/status.h"
#include "table/csv.h"
#include "table/table.h"

namespace autobi {

// The reference CSV reader, kept for differential tests only: the
// straightforward original implementation of ReadCsv. It tokenizes the
// whole input into a vector of string rows, infers each cell's type with
// strtoll/strtod on a NUL-terminated copy, then parses every cell again as
// it appends. Its number verdicts and trimming are frozen copies, so a
// change to the production parsers (common/strings.h) cannot move the
// oracle with it. ReadCsv must return bit-identical tables, CsvStats and
// errors on every input.
StatusOr<Table> ReadCsvOracle(std::string_view text, std::string table_name,
                              const CsvOptions& options = {},
                              CsvStats* stats = nullptr);

}  // namespace autobi

#endif  // AUTOBI_ORACLE_CSV_ORACLE_H_

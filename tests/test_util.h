#ifndef AUTOBI_TESTS_TEST_UTIL_H_
#define AUTOBI_TESTS_TEST_UTIL_H_

#include <sys/resource.h>

#include <algorithm>
#include <csignal>
#include <functional>
#include <string>
#include <vector>

#include "table/table.h"
#include "table/value.h"

namespace autobi {

// Builds a table from textual cells; per-column types are inferred the same
// way the CSV reader does. Empty cells become nulls.
inline Table MakeTable(
    const std::string& name,
    const std::vector<std::pair<std::string, std::vector<std::string>>>&
        columns) {
  Table t(name);
  for (const auto& [col_name, cells] : columns) {
    ValueType type = ValueType::kNull;
    for (const std::string& cell : cells) {
      type = UnifyValueTypes(type, InferValueType(cell));
    }
    if (type == ValueType::kNull) type = ValueType::kString;
    Column& col = t.AddColumn(col_name, type);
    for (const std::string& cell : cells) {
      col.AppendParsed(cell);
    }
  }
  return t;
}

// Sequential int cells "lo".."hi" as strings.
inline std::vector<std::string> SeqCells(int lo, int hi) {
  std::vector<std::string> out;
  for (int i = lo; i <= hi; ++i) out.push_back(std::to_string(i));
  return out;
}

// Runs `save` with the process file-size limit (RLIMIT_FSIZE) at `limit`
// bytes and SIGXFSZ ignored, so a write past the limit fails with EFBIG
// instead of killing the process: a save cut off part-way. Restores the
// limit and the signal disposition, then returns `save`'s result.
inline bool SaveWithFileSizeLimit(rlim_t limit,
                                  const std::function<bool()>& save) {
  rlimit saved;
  getrlimit(RLIMIT_FSIZE, &saved);
  rlimit capped = saved;
  capped.rlim_cur = std::min(limit, saved.rlim_max);
  void (*saved_handler)(int) = std::signal(SIGXFSZ, SIG_IGN);
  setrlimit(RLIMIT_FSIZE, &capped);
  bool ok = save();
  setrlimit(RLIMIT_FSIZE, &saved);
  std::signal(SIGXFSZ, saved_handler);
  return ok;
}

}  // namespace autobi

#endif  // AUTOBI_TESTS_TEST_UTIL_H_

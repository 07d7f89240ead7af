#include "core/schema_diff.h"

#include "common/parallel.h"
#include "profile/sketch.h"

namespace autobi {

namespace {

// True when every column of `table` extends the matched snapshot's column by
// appended rows only: the snapshot's (name + cells) hash must reappear as
// the prefix content hash of the new column over the old row count. `next`
// is the snapshot of `table`; its append record, when taken at prev's row
// count, holds those prefix hashes already.
bool IsAppendOnlyExtension(const TableSnapshot& prev, const TableSnapshot& next,
                           const Table& table) {
  if (table.num_columns() != prev.num_columns) return false;
  if (table.num_rows() < prev.num_rows) return false;
  if (next.appended.has_value() && next.appended->num_rows == prev.num_rows) {
    return next.appended->column_hashes == prev.column_hashes;
  }
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (ColumnContentHashPrefix(table.column(c), prev.num_rows) !=
        prev.column_hashes[c]) {
      return false;
    }
  }
  return true;
}

// True when the tables hold the same cells column-by-column regardless of
// any name (table or column) differences.
bool SameCells(const TableSnapshot& prev, const TableSnapshot& next) {
  if (next.num_columns != prev.num_columns) return false;
  if (next.num_rows != prev.num_rows) return false;
  for (size_t c = 0; c < next.num_columns; ++c) {
    if (next.cells_hashes[c] != prev.cells_hashes[c]) return false;
  }
  return true;
}

}  // namespace

TableSnapshot SnapshotTable(const Table& table) {
  TableSnapshot snap;
  snap.name = table.name();
  snap.num_rows = table.num_rows();
  snap.num_columns = table.num_columns();
  snap.column_hashes.reserve(table.num_columns());
  snap.cells_hashes.reserve(table.num_columns());
  // One pass over the cell bytes per column: the named hash and the table
  // hash are both recompositions of the cells hash (profile/sketch.h).
  for (size_t c = 0; c < table.num_columns(); ++c) {
    uint64_t cells = ColumnCellsHash(table.column(c));
    snap.cells_hashes.push_back(cells);
    snap.column_hashes.push_back(
        ColumnContentHashFromCells(table.column(c).name(), cells));
  }
  snap.table_hash =
      TableContentHashFromColumnHashes(table.name(), snap.column_hashes);
  return snap;
}

std::vector<ValueType> ColumnTypes(const Table& table) {
  std::vector<ValueType> types;
  types.reserve(table.num_columns());
  for (const Column& column : table.columns()) types.push_back(column.type());
  return types;
}

TableSnapshot SnapshotAppendedTable(const Table& table, TableSnapshot before,
                                    const std::vector<ValueType>& types_before) {
  TableSnapshot snap = SnapshotTable(table);
  if (ColumnTypes(table) == types_before) {
    snap.appended =
        AppendRecord{before.num_rows, std::move(before.column_hashes)};
  }
  return snap;
}

std::vector<TableSnapshot> SnapshotTables(const std::vector<Table>& tables,
                                          int threads) {
  const std::vector<size_t> order =
      LargestFirst(tables.size(), [&](size_t i) {
        return tables[i].num_rows() * tables[i].num_columns();
      });
  std::vector<TableSnapshot> snapshots(tables.size());
  ParallelFor(
      tables.size(),
      [&](size_t k) { snapshots[order[k]] = SnapshotTable(tables[order[k]]); },
      threads);
  return snapshots;
}

std::vector<TableChange> DiffSchema(const std::vector<TableSnapshot>& prev,
                                    const std::vector<TableSnapshot>& next,
                                    const std::vector<Table>& tables) {
  // Unmatched tables keep the default classification, kAdded.
  std::vector<TableChange> changes(tables.size());
  std::vector<char> used(prev.size(), 0);
  // One greedy pass: each still-unmatched new table claims the first unused
  // previous table `p` with match(p, i), classified as kind(p, i).
  auto claim = [&](auto match, auto kind) {
    for (size_t i = 0; i < tables.size(); ++i) {
      if (changes[i].prev_index >= 0) continue;
      for (size_t p = 0; p < prev.size(); ++p) {
        if (used[p] || !match(p, i)) continue;
        changes[i] = {kind(p, i), int(p)};
        used[p] = 1;
        break;
      }
    }
  };
  // Pass 1: exact matches (kUnchanged) claim their previous table first so a
  // same-name-but-edited twin can never steal an unchanged table's cache.
  claim(
      [&](size_t p, size_t i) {
        return prev[p].table_hash == next[i].table_hash;
      },
      [](size_t, size_t) { return TableChangeKind::kUnchanged; });
  // Pass 2: same-name matches — appended / column-renamed / replaced.
  claim([&](size_t p, size_t i) { return prev[p].name == next[i].name; },
        [&](size_t p, size_t i) {
          if (SameCells(prev[p], next[i])) {
            return TableChangeKind::kRenamed;  // Same cells, new column names.
          }
          return IsAppendOnlyExtension(prev[p], next[i], tables[i])
                     ? TableChangeKind::kAppended
                     : TableChangeKind::kReplaced;
        });
  // Pass 3: whole-table renames — same cells under a different table name.
  claim([&](size_t p, size_t i) { return SameCells(prev[p], next[i]); },
        [](size_t, size_t) { return TableChangeKind::kRenamed; });
  return changes;
}

}  // namespace autobi

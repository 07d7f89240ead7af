#ifndef AUTOBI_CORE_SCHEMA_DIFF_H_
#define AUTOBI_CORE_SCHEMA_DIFF_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "table/table.h"

namespace autobi {

// Schema diffing for incremental re-prediction (core/incremental.h): each
// table of the new submission is classified against a snapshot of the
// previous one by content hash, so the pipeline knows which work cached in
// an IncrementalState is still valid. All classifications are hash-proven
// (modulo 64-bit collisions, the same exactness caveat as the PredictCache):
//
//   kUnchanged  byte-identical table (name, column names, cells).
//   kRenamed    same cells, new table and/or column names. Name-free work
//               (profiles, UCCs) transfers; name-dependent work (candidate
//               scores, metadata fallback) does not.
//   kAppended   same name, same columns, old cells an exact prefix of the
//               new ones with rows appended — the profile-merge fast path.
//   kReplaced   same name, different cells (in-place edit / reload).
//   kAdded      no previous table matches.
//
// Previous tables matched by nothing are reported as dropped.

// What a table held before rows were appended to it: its row count and
// per-column ColumnContentHash then.
struct AppendRecord {
  size_t num_rows = 0;
  std::vector<uint64_t> column_hashes;
};

// Hash summary of one table, taken once per table content: the serving
// engine takes it when a table is uploaded or updated, and a predict given
// no snapshots takes one per table. The hashes key the schema diff, the
// PredictCache table shard and the solve memo, and a healthy stateful run
// keeps them in its IncrementalState.
struct TableSnapshot {
  std::string name;
  size_t num_rows = 0;
  size_t num_columns = 0;
  // TableContentHash: name + per-column (name + cells) hashes.
  uint64_t table_hash = 0;
  // Per-column ColumnContentHash (name + cells) — prefix-extendable, the
  // append test re-derives these over the new columns' first num_rows rows.
  std::vector<uint64_t> column_hashes;
  // Per-column ColumnCellsHash (cells only) — the rename detector.
  std::vector<uint64_t> cells_hashes;
  // Set by SnapshotAppendedTable: the table before its latest append, when
  // that append changed no column's type. DiffSchema's append test reads it
  // instead of rehashing the old rows.
  std::optional<AppendRecord> appended;
};

TableSnapshot SnapshotTable(const Table& table);

// The column types of `table`, in column order.
std::vector<ValueType> ColumnTypes(const Table& table);

// SnapshotTable of `table` after rows were appended to it in place (old
// cells untouched), given `before`, its snapshot from before the append,
// and `types_before`, its ColumnTypes then. When no column changed its
// type, `before`'s row count and column hashes are exactly the new columns'
// prefix hashes over that many rows, and become the append record. An
// append can give an all-null column a type, and the type is hashed, so
// such an append keeps no record.
TableSnapshot SnapshotAppendedTable(const Table& table, TableSnapshot before,
                                    const std::vector<ValueType>& types_before);

// SnapshotTable over every table, fanned out over `threads` (ResolveThreads
// semantics); slot i holds the snapshot of tables[i].
std::vector<TableSnapshot> SnapshotTables(const std::vector<Table>& tables,
                                          int threads);

enum class TableChangeKind {
  kUnchanged,
  kRenamed,
  kAppended,
  kReplaced,
  kAdded,
};

// Classification of one table of the new submission.
struct TableChange {
  TableChangeKind kind = TableChangeKind::kAdded;
  // Index of the matched previous table (-1 for kAdded).
  int prev_index = -1;
};

// Diffs `tables` against `prev`, one classification per new table (previous
// tables matched by nothing were dropped); `next` must be the snapshots of
// `tables` (next[i] == SnapshotTable(tables[i]), plus any append record —
// precomputed by the caller so the hashes also key the caches and the state
// update). Matching is greedy in new-table order, each previous table
// consumed at most once, preferring (1) exact table-hash match, (2)
// same-name match (classified appended/renamed-columns/replaced by the cell
// hashes), (3) same-shape cells match (whole-table rename). The append test
// compares next[i]'s append record with the previous snapshot when the
// record's row count is the previous table's, and rehashes the new columns'
// prefixes otherwise; the record holds exactly those prefix hashes, so the
// verdict is the rehash's either way.
std::vector<TableChange> DiffSchema(const std::vector<TableSnapshot>& prev,
                                    const std::vector<TableSnapshot>& next,
                                    const std::vector<Table>& tables);

}  // namespace autobi

#endif  // AUTOBI_CORE_SCHEMA_DIFF_H_

#ifndef AUTOBI_CORE_SCHEMA_DIFF_H_
#define AUTOBI_CORE_SCHEMA_DIFF_H_

#include <cstdint>
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

// Hash summary of one table. Every predict computes one per table, once:
// the hashes key the schema diff, the PredictCache table shard and the
// solve memo, and a healthy stateful run keeps them in its
// IncrementalState.
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
};

TableSnapshot SnapshotTable(const Table& table);

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
// `tables` (next[i] == SnapshotTable(tables[i]) — precomputed by the caller
// so the hashes also key the caches and the state update). Matching is
// greedy in new-table order, each previous table consumed at most once,
// preferring (1) exact table-hash match, (2) same-name match (classified
// appended/renamed-columns/replaced by the cell hashes), (3) same-shape
// cells match (whole-table rename).
std::vector<TableChange> DiffSchema(const std::vector<TableSnapshot>& prev,
                                    const std::vector<TableSnapshot>& next,
                                    const std::vector<Table>& tables);

}  // namespace autobi

#endif  // AUTOBI_CORE_SCHEMA_DIFF_H_

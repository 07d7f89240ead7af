#ifndef AUTOBI_PROFILE_SKETCH_H_
#define AUTOBI_PROFILE_SKETCH_H_

#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "table/table.h"

namespace autobi {

// Hash-sketch primitives for the profiling layer. The join-discovery kernels
// (Containment, CompositeContainment, the blocking plan of DiscoverInds)
// operate on stable 64-bit hashes of canonical keys instead of on the keys
// themselves: candidate generation then touches only contiguous sorted
// uint64 vectors — no per-pair string hashing, no pointer chasing.
//
// Stability contract: StableHash64 is FNV-1a with the classic 64-bit
// offset/prime constants of common/hash.h, which also provides the
// SplitMix64 mixer the content hashes below combine with. It is a pure
// function of the key bytes — no seed, no address-sensitivity — so hashes
// are identical across runs, thread counts, and platforms, and two columns
// agree on a value's hash iff they agree on its canonical key (modulo
// 64-bit collisions; see the exactness note on Containment in
// column_profile.h).

// Stable FNV-1a 64-bit hash of a byte string. This is the same hash the EMD
// feature has always used for its hashed-key distribution (profile/emd.cc),
// which keeps the two layers' views of a value consistent.
inline uint64_t StableHash64(std::string_view s) {
  return FnvBytes(kFnvOffset, s.data(), s.size());
}

// Maps a 64-bit hash to [0, 1), monotonically in the hash value. Matches the
// historical HashToUnit of profile/emd.cc: (h >> 11) * 2^-53.
inline double HashToUnitInterval(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

// Content hash of a column: a stable function of the column name, declared
// type, and every cell (nulls included, order-sensitive). Two columns have
// equal hashes iff they are byte-identical (modulo 64-bit collisions), across
// runs, platforms and thread counts. This is the key of the cross-request
// profile caches (core/predict_cache.h): an unchanged column re-uploaded to
// the prediction service hashes identically and skips re-profiling.
uint64_t ColumnContentHash(const Column& column);

// ColumnContentHash restricted to the column's first `rows` cells:
// byte-identical to ColumnContentHash of the column truncated to that length
// (`rows` must be <= column.size(); rows == column.size() gives exactly
// ColumnContentHash). This is how the schema-diff stage
// (core/schema_diff.h) proves a table is an append-only extension of a
// cached one — the old per-column hashes must reappear as prefix hashes of
// the new columns.
uint64_t ColumnContentHashPrefix(const Column& column, size_t rows);

// Name-free content hash of a column: declared type + every cell, the name
// excluded. Two columns agree iff their cells (and type) are byte-identical
// regardless of what they are called — the signal the schema-diff stage uses
// to classify a column/table rename as "same cells, new name".
uint64_t ColumnCellsHash(const Column& column);

// ColumnCellsHash restricted to the column's first `rows` cells (the prefix
// analogue; rows == column.size() gives exactly ColumnCellsHash).
uint64_t ColumnCellsHashPrefix(const Column& column, size_t rows);

// Recomposes the named content hash from a column's name and an already
// computed cells hash: ColumnContentHash(col) ==
// ColumnContentHashFromCells(col.name(), ColumnCellsHash(col)), and likewise
// for the prefix forms. Callers that need both hashes of a column (the
// schema-diff snapshot stage) use this to pay a single pass over the cells.
uint64_t ColumnContentHashFromCells(std::string_view name,
                                    uint64_t cells_hash);

// Content hash of a whole table: name + per-column content hashes, order
// sensitive, SplitMix64-combined. Cost is one linear pass over the cell
// bytes — roughly an order of magnitude cheaper than profiling the table.
uint64_t TableContentHash(const Table& table);

// TableContentHash recomposed from precomputed per-column content hashes
// (column_hashes[c] == ColumnContentHash(table.column(c))). The snapshot
// stage derives the table hash from the column hashes it already holds.
uint64_t TableContentHashFromColumnHashes(
    std::string_view name, const std::vector<uint64_t>& column_hashes);

// Content hash of an ordered table set (a whole prediction case).
uint64_t TablesContentHash(const std::vector<Table>& tables);

// TablesContentHash recomposed from precomputed per-table content hashes
// (table_hashes[i] == TableContentHash(tables[i])). Lets callers that
// already hashed every table (the schema-diff stage) derive the case hash
// without another pass over the cell bytes.
uint64_t TablesContentHashFromHashes(const std::vector<uint64_t>& table_hashes);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_SKETCH_H_

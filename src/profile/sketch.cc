#include "profile/sketch.h"

namespace autobi {

namespace {

// FNV-1a accumulation helpers for the content hashes. Byte-exact and
// allocation-free: numeric cells hash their binary representation, string
// cells their bytes, and a per-cell tag separates null/int/double/string so
// "" and null (or 3 and "3") never alias.
inline void MixByte(uint64_t& h, unsigned char c) { h = FnvStep(h, c); }

inline void MixBytes(uint64_t& h, const void* data, size_t n) {
  h = FnvBytes(h, data, n);
}

inline void MixU64(uint64_t& h, uint64_t v) { MixBytes(h, &v, sizeof(v)); }

// The shared cell-stream accumulator of every content-hash variant below:
// declared type, cell count, then each of the first `rows` cells with its
// null/int/double/string tag. Keeping it in one place is what makes the
// prefix hash byte-identical to the full hash of a truncated column.
inline void MixColumnCells(uint64_t& h, const Column& column, size_t rows) {
  MixU64(h, uint64_t(column.type()));
  MixU64(h, rows);
  for (size_t r = 0; r < rows; ++r) {
    if (column.IsNull(r)) {
      MixByte(h, 0);
      continue;
    }
    switch (column.type()) {
      case ValueType::kInt: {
        MixByte(h, 1);
        MixU64(h, uint64_t(column.Int(r)));
        break;
      }
      case ValueType::kDouble: {
        MixByte(h, 2);
        double d = column.Double(r);
        MixBytes(h, &d, sizeof(d));
        break;
      }
      case ValueType::kString: {
        const std::string& s = column.Str(r);
        MixByte(h, 3);
        MixU64(h, s.size());
        MixBytes(h, s.data(), s.size());
        break;
      }
      case ValueType::kNull:
        MixByte(h, 0);
        break;
    }
  }
}

}  // namespace

// The named content hashes are defined as a recomposition of the name-free
// cells hash so that a caller holding the cells hash gets the named hash for
// free (one cell pass yields both; see ColumnContentHashFromCells).

uint64_t ColumnContentHashFromCells(std::string_view name,
                                    uint64_t cells_hash) {
  uint64_t h = kFnvOffset;
  MixBytes(h, name.data(), name.size());
  MixByte(h, 0);  // Name/content separator.
  MixU64(h, cells_hash);
  return SplitMix64(h);
}

uint64_t ColumnContentHash(const Column& column) {
  return ColumnContentHashFromCells(column.name(), ColumnCellsHash(column));
}

uint64_t ColumnContentHashPrefix(const Column& column, size_t rows) {
  return ColumnContentHashFromCells(column.name(),
                                    ColumnCellsHashPrefix(column, rows));
}

uint64_t ColumnCellsHash(const Column& column) {
  return ColumnCellsHashPrefix(column, column.size());
}

uint64_t ColumnCellsHashPrefix(const Column& column, size_t rows) {
  uint64_t h = kFnvOffset;
  MixColumnCells(h, column, rows);
  return SplitMix64(h);
}

uint64_t TableContentHashFromColumnHashes(
    std::string_view name, const std::vector<uint64_t>& column_hashes) {
  uint64_t h = kFnvOffset;
  MixBytes(h, name.data(), name.size());
  MixByte(h, 0);
  MixU64(h, column_hashes.size());
  for (uint64_t ch : column_hashes) MixU64(h, ch);
  return SplitMix64(h);
}

uint64_t TableContentHash(const Table& table) {
  std::vector<uint64_t> hashes;
  hashes.reserve(table.num_columns());
  for (size_t c = 0; c < table.num_columns(); ++c) {
    hashes.push_back(ColumnContentHash(table.column(c)));
  }
  return TableContentHashFromColumnHashes(table.name(), hashes);
}

uint64_t TablesContentHash(const std::vector<Table>& tables) {
  std::vector<uint64_t> hashes;
  hashes.reserve(tables.size());
  for (const Table& t : tables) hashes.push_back(TableContentHash(t));
  return TablesContentHashFromHashes(hashes);
}

uint64_t TablesContentHashFromHashes(
    const std::vector<uint64_t>& table_hashes) {
  uint64_t h = kFnvOffset;
  MixU64(h, table_hashes.size());
  for (uint64_t th : table_hashes) MixU64(h, th);
  return SplitMix64(h);
}

}  // namespace autobi

#ifndef AUTOBI_PROFILE_COLUMN_PROFILE_H_
#define AUTOBI_PROFILE_COLUMN_PROFILE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Precomputed per-column statistics shared by the IND/UCC discoverers, the
// featurizers, and the baselines. Profiling is the only pass over the raw
// data; everything downstream works off these summaries, which is what keeps
// end-to-end inference fast (Figure 5).
//
// The distinct-value summary is hash-first (see table/key_view.h): the
// canonical keys are materialized once into an arena-backed pool and
// aggregated by their stable 64-bit FNV-1a hashes with a radix sort — no
// per-cell std::string, no per-row string-map operation. The pooled key
// bytes stay recoverable for the consumers that need the values themselves
// (the string-map reference kernels of oracle/profile_oracle.h, tests,
// debugging).
struct ColumnProfile {
  ValueType type = ValueType::kNull;
  size_t row_count = 0;
  size_t non_null_count = 0;
  // Number of distinct canonical keys among non-null cells. Exact (collision
  // runs in the hash aggregation are verified against the pooled key bytes),
  // so IsUnique/distinct_ratio match the string-map definition of
  // ProfileColumnLegacy (oracle/profile_oracle.h).
  size_t num_distinct = 0;
  // Hash-sketch view of the distinct values (profile/sketch.h): stable
  // 64-bit FNV-1a hashes of the canonical keys, sorted ascending and
  // strictly increasing (in-column collisions merged), with parallel
  // occurrence counts. Containment runs as a sorted-merge intersection over
  // these vectors, and the first min(k, n) entries double as the column's
  // bottom-k KMV sketch.
  std::vector<uint64_t> distinct_hashes;
  std::vector<int32_t> distinct_counts;
  // Pooled canonical key bytes of the distinct values, parallel to
  // distinct_hashes (for a merged collision run the representative is the
  // key of the lowest row). distinct_key(i) recovers the i-th distinct value
  // without any per-value allocation.
  std::string distinct_pool;
  std::vector<uint64_t> distinct_offsets;  // distinct_hashes.size() + 1.
  // Distinct / non-null ratio (1.0 == column is a key candidate).
  double distinct_ratio = 0.0;
  // Numeric min/max (valid only if is_numeric).
  bool is_numeric = false;
  double min_value = 0.0;
  double max_value = 0.0;
  // Sorted sample of numeric values, used for distribution features (EMD).
  std::vector<double> sorted_numeric_sample;
  // Average rendered value length (characters).
  double avg_value_length = 0.0;
  // Exact total canonical key bytes over all non-null cells
  // (avg_value_length = key_bytes / non_null_count). An integer sum, so
  // append-only deltas merge it exactly without rescanning old rows.
  size_t key_bytes = 0;
  // True 64-bit collision bookkeeping: distinct keys sharing a hash beyond
  // the run representative, ordered by (hash ascending, first-occurrence row
  // ascending), the two vectors parallel. Almost always empty; kept so
  // num_distinct (= distinct_hashes.size() + collision_keys.size()) stays
  // exact AND mergeable under append-only deltas — a cross-batch collision
  // is only detectable if the representative keys travel with the profile.
  std::vector<uint64_t> collision_hashes;
  std::vector<std::string> collision_keys;

  // Canonical key bytes of the i-th distinct value (hash order).
  std::string_view distinct_key(size_t i) const {
    return std::string_view(distinct_pool.data() + distinct_offsets[i],
                            distinct_offsets[i + 1] - distinct_offsets[i]);
  }

  bool IsUnique() const {
    return non_null_count > 0 && num_distinct == non_null_count;
  }
};

// Profile of every column of a table, plus table-level counts.
struct TableProfile {
  size_t row_count = 0;
  std::vector<ColumnProfile> columns;
};

// Computes a profile for one column. `max_sample` bounds the numeric sample
// retained for distribution features. The first form builds the column's
// key view internally; the second reuses a prebuilt view (which must come
// from the same column) so callers that also run UCC/IND kernels pay for the
// view once.
ColumnProfile ProfileColumn(const Column& col, size_t max_sample = 512);
ColumnProfile ProfileColumn(const Column& col, const ColumnKeyView& view,
                            size_t max_sample = 512);

// Dense value identity of a column's rows, from the same open-addressing
// distinct probe ProfileColumn aggregates with: (*ids)[r] is the first row
// whose canonical key equals row r's (exact — equal hashes are verified by
// key bytes), or kNullValueId for a null cell. Two rows hold the same value
// iff their ids are equal, and every id is a row index below view.size(),
// so ids index per-row scratch arrays directly. This is the input the UCC
// lattice refines its stripped partitions with (profile/ucc.h).
inline constexpr uint32_t kNullValueId = UINT32_MAX;
void ColumnValueIds(const ColumnKeyView& view, std::vector<uint32_t>* ids);

// Profiles every column of `table` (optionally through a prebuilt view of
// the same table).
TableProfile ProfileTable(const Table& table, size_t max_sample = 512);
TableProfile ProfileTable(const Table& table, const TableKeyView& view,
                          size_t max_sample = 512);

// Merges a cached profile forward over an append-only delta: `old_profile`
// must be the profile of `col`'s first old_profile.row_count rows (the
// caller establishes this via the per-column prefix content hash — see
// core/schema_diff.h), and the result is bit-identical to
// ProfileColumn(col) on every field. Key rendering, hashing, and distinct
// aggregation run only over the appended suffix rows; the one full-column
// pass left is the cheap numeric min/max/sample scan, whose strided sample
// positions depend on the total non-null count and so cannot be merged.
ColumnProfile MergeAppendedColumnProfile(const ColumnProfile& old_profile,
                                         const Column& col,
                                         size_t max_sample = 512);

// MergeAppendedColumnProfile over every column of a table; bit-identical to
// ProfileTable(table) under the same prefix contract per column.
TableProfile MergeAppendedTableProfile(const TableProfile& old_profile,
                                       const Table& table,
                                       size_t max_sample = 512);

// A schema-shaped profile that never scans rows: per-column types only, zero
// counts and empty distinct sets. Used when a RunContext row/cell budget
// excludes a table from value probing — downstream treats the table exactly
// like an empty (DDL-only) one.
TableProfile MetadataOnlyProfile(const Table& table);

// Profiles every table of a case. Tables are profiled in parallel on the
// shared pool (`threads` as in ResolveThreads: 0 = AUTOBI_THREADS/hardware,
// 1 = serial); output order and contents are thread-count-invariant.
std::vector<TableProfile> ProfileTables(const std::vector<Table>& tables,
                                        size_t max_sample = 512,
                                        int threads = 0);

// Row-weighted containment of A in B: the fraction of A's non-null cells
// whose value appears among B's values. Row-weighting (rather than counting
// distinct values) keeps true FK -> small-dimension joins detectable when a
// handful of distinct junk values pollutes the FK column. 0 if A is empty.
//
// Implemented as a sorted-merge intersection of the columns' distinct-hash
// vectors, switching to a galloping (exponential) search when the dependent
// side is much smaller — tiny/skewed sets probe a handful of nearby cache
// lines instead of full-width binary searches, so they never lose to the
// string-map kernel. Exact modulo 64-bit FNV collisions between
// distinct canonical keys (probability ~ n^2 / 2^64; the sketch property
// tests verify equality with ContainmentViaStringMap,
// oracle/profile_oracle.h, on randomized and corpus data).
double Containment(const ColumnProfile& a, const ColumnProfile& b);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_COLUMN_PROFILE_H_

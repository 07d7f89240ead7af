#ifndef AUTOBI_ORACLE_PROFILE_ORACLE_H_
#define AUTOBI_ORACLE_PROFILE_ORACLE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "profile/column_profile.h"
#include "profile/ind.h"
#include "profile/ucc.h"
#include "table/table.h"

namespace autobi {

// The profiling kernels the hash-first kernels over table/key_view.h
// replaced: one Column::KeyAt string and one string-map or string-set
// operation per cell. tests/kernel_oracle_test.cc and tests/sketch_test.cc
// hold the production kernels bit-identical to them; bench_micro_profile
// times them as the "before" column.

// ProfileColumn through a node-based string map: a bit-identical
// ColumnProfile, every field included.
ColumnProfile ProfileColumnLegacy(const Column& col, size_t max_sample = 512);

// A profile's distinct values as a string map (key -> occurrence count),
// materialized from the pooled keys.
using DistinctKeyMap = std::unordered_map<std::string, int32_t>;
DistinctKeyMap BuildDistinctKeyMap(const ColumnProfile& p);

// Containment over string maps. The two-profile form materializes both maps
// per call; the prebuilt-map form is what the benchmark times (probe cost
// only, as the historical kernel paid).
double ContainmentViaStringMap(const ColumnProfile& a, const ColumnProfile& b);
double ContainmentViaStringMap(const DistinctKeyMap& a, size_t a_non_null,
                               const DistinctKeyMap& b);

// True if `columns` has no duplicate non-null-complete tuple and at least
// one such tuple (rows with a null in any member are skipped, as for SQL
// candidate keys). Escaped string tuple keys probed through an
// unordered_set.
bool IsUniqueCombinationLegacy(const Table& table,
                               const std::vector<int>& columns);

// DiscoverUccs with every candidate checked by IsUniqueCombinationLegacy
// instead of partition refinement; enumeration order, pruning and the
// max_candidates cutoff are the production lattice's.
std::vector<Ucc> DiscoverUccsLegacy(const Table& table,
                                    const TableProfile& profile,
                                    const UccOptions& options = {});

// Streaming hash of the composite tuple of `columns` at row r through
// Column::KeyAt: StableHash64 of the escaped rendering "v1|v2|...|" ('|' and
// '\' backslash-escaped inside values), without materializing it. Returns
// false if any cell is null. TupleHashFromViews (table/key_view.h) is the
// production form.
bool TupleHash(const Table& table, const std::vector<int>& columns, size_t r,
               uint64_t* out, std::string* scratch);

// BuildCompositeKeySet and CompositeContainment over per-row TupleHash.
CompositeKeyCache::HashSet BuildCompositeKeySetLegacy(
    const Table& table, const std::vector<int>& cols);
double CompositeContainmentLegacy(const Table& ta, const std::vector<int>& ca,
                                  const Table& tb, const std::vector<int>& cb);

}  // namespace autobi

#endif  // AUTOBI_ORACLE_PROFILE_ORACLE_H_

#ifndef AUTOBI_PROFILE_UCC_H_
#define AUTOBI_PROFILE_UCC_H_

#include <vector>

#include "profile/column_profile.h"
#include "table/key_view.h"
#include "table/table.h"

namespace autobi {

// Unique column combination (candidate key) discovery. UCC generation is the
// first stage of the join-discovery pipeline (Figure 5(b)): join targets
// ("1"-sides) must be unique, so only columns participating in a UCC can be
// PK endpoints.

struct UccOptions {
  // Maximum combination size explored (composite keys).
  size_t max_arity = 3;
  // Apriori-style lattice search is cut off after this many candidate checks
  // to bound worst-case cost on wide tables.
  size_t max_candidates = 2000;
  // A column with distinct ratio below this cannot participate in any UCC
  // (pruning heuristic; 0 disables).
  double min_distinct_ratio = 0.05;
  // Run candidate checks through the legacy string-set kernel
  // (IsUniqueCombinationLegacy) instead of partition refinement. Oracle knob
  // for the kernel-equivalence property tests; production leaves it off.
  bool legacy_kernel = false;
};

// One discovered minimal unique column combination.
struct Ucc {
  std::vector<int> columns;  // Sorted column indices.
};

// Returns all *minimal* UCCs of `table` up to the option's arity, using a
// breadth-first lattice search with superset pruning (in the spirit of the
// IND/UCC discovery literature the paper invokes as a standard step).
//
// Candidates are checked by partition refinement (stripped partitions, or
// position list indexes, as in TANE and HyUCC): each column's rows get dense
// value ids from the profiling kernel's distinct probe (ColumnValueIds), a
// base combination's partition is its prefix's partition refined by one
// column, and a candidate base + {c} is unique iff no cluster of the base
// holds two rows with the same value of c and some row is non-null in every
// member. Ids and partitions are transient per call.
// If `view` is non-null it must be a TableKeyView of `table` and the ids are
// computed from it; otherwise each column's view is built transiently the
// first time the column appears in an arity >= 2 candidate.
std::vector<Ucc> DiscoverUccs(const Table& table, const TableProfile& profile,
                              const UccOptions& options = {},
                              const TableKeyView* view = nullptr);

// True if the given column set has no duplicate (non-null-complete) tuples
// and at least one non-null-complete tuple. Rows with a null in any of the
// columns are skipped, matching the SQL semantics of candidate keys with
// nullable columns. Point check for tests and the oracle of DiscoverUccs'
// partition checks; the lattice does not call it.
//
// Hash-first kernel: streams the composite tuple hashes (the TupleHash
// escape convention of profile/sketch.h), radix-sorts (hash, row) pairs, and
// scans equal-hash runs — a run of length >= 2 is a duplicate unless the
// pooled key bytes prove it a 64-bit collision (verify-on-collision keeps
// the result exact). No per-row string tuple keys, no string set.
bool IsUniqueCombination(const Table& table, const std::vector<int>& columns);
bool IsUniqueCombination(const TableKeyView& view,
                         const std::vector<int>& columns);

// Legacy reference kernel: escaped string tuple keys probed through an
// unordered_set. Retained as the oracle for the kernel-equivalence property
// tests and, through UccOptions::legacy_kernel, of the lattice.
bool IsUniqueCombinationLegacy(const Table& table,
                               const std::vector<int>& columns);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_UCC_H_

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
// member (rows with a null in any member are skipped, matching the SQL
// semantics of candidate keys with nullable columns). Ids and partitions are
// transient per call.
// If `view` is non-null it must be a TableKeyView of `table` and the ids are
// computed from it; otherwise each column's view is built transiently the
// first time the column appears in an arity >= 2 candidate.
std::vector<Ucc> DiscoverUccs(const Table& table, const TableProfile& profile,
                              const UccOptions& options = {},
                              const TableKeyView* view = nullptr);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_UCC_H_

#ifndef AUTOBI_PROFILE_UCC_INTERNAL_H_
#define AUTOBI_PROFILE_UCC_INTERNAL_H_

#include <vector>

#include "profile/ucc.h"

namespace autobi {

// Internal entry point of the UCC lattice for the reference kernels of
// oracle/profile_oracle.h; not part of the profiling API.

// Decides whether `columns` (a sorted candidate) is a UCC of `table`.
using UccCandidateCheck = bool (*)(const Table& table,
                                   const std::vector<int>& columns);

// DiscoverUccs with every candidate that survives the counting prune decided
// by `check` instead of partition refinement. Candidate order, the
// covered-subset check, the counting prune and the max_candidates cutoff are
// the production lattice's, so equal predicates give equal UCC lists.
std::vector<Ucc> DiscoverUccsWithCheck(const Table& table,
                                       const TableProfile& profile,
                                       const UccOptions& options,
                                       UccCandidateCheck check);

}  // namespace autobi

#endif  // AUTOBI_PROFILE_UCC_INTERNAL_H_

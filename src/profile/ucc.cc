#include "profile/ucc.h"

#include <algorithm>
#include <cstdint>

#include "profile/ucc_internal.h"

namespace autobi {

namespace {

bool IsSubset(const std::vector<int>& small, const std::vector<int>& big) {
  // Both sorted.
  return std::includes(big.begin(), big.end(), small.begin(), small.end());
}

// Stripped partition (position list index) of a column combination: the
// clusters of two or more rows that agree on every member column, with rows
// holding a null in any member dropped. Rows within a cluster ascend.
struct StrippedPartition {
  std::vector<uint32_t> rows;        // Cluster members, cluster after cluster.
  std::vector<uint32_t> ends = {0};  // Cluster i is rows[ends[i], ends[i+1]).
  size_t num_clusters() const { return ends.size() - 1; }
};

// The partition-refinement uniqueness check of one DiscoverUccs call, after
// TANE (Huhtala et al., 1999) and HyUCC (Papenbrock & Naumann, 2017). Each
// column's rows get dense value ids (ColumnValueIds) on first use. The
// partition of a base combination is its prefix's partition refined by the
// base's last column, touching only rows already in clusters; the lattice
// visits bases in lexicographic order, so a stack of prefix partitions is
// reused from one base to the next. A candidate base + {c} is checked by an
// early-exit duplicate probe of c's ids within the base's clusters: its own
// partition is only built if it later becomes a base. Everything here lives
// for one call; nothing enters the profile or the caches.
class PliLattice {
 public:
  PliLattice(const Table& table, const TableKeyView* view)
      : table_(table), view_(view), ids_(table.num_columns()) {}

  // True iff base + {c} is unique: no two rows of a base cluster share a
  // value of c, and at least one row is non-null in every member column.
  bool IsUniqueExtension(const std::vector<int>& base, int c) {
    const StrippedPartition& part = Partition(base);
    const std::vector<uint32_t>& ids = Ids(c);
    for (size_t i = 0; i < part.num_clusters(); ++i) {
      const uint32_t* begin = part.rows.data() + part.ends[i];
      const uint32_t* end = part.rows.data() + part.ends[i + 1];
      bool duplicate = false;
      for (const uint32_t* r = begin; r != end; ++r) {
        uint32_t v = ids[*r];
        if (v != kNullValueId && count_[v]++ != 0) {
          duplicate = true;
          break;
        }
      }
      ClearCounts(begin, end, ids);
      if (duplicate) return false;
    }
    for (size_t r = 0; r < table_.num_rows(); ++r) {
      bool complete = ids[r] != kNullValueId;
      for (size_t k = 0; complete && k < base.size(); ++k) {
        complete = Ids(base[k])[r] != kNullValueId;
      }
      if (complete) return true;
    }
    return false;
  }

 private:
  const std::vector<uint32_t>& Ids(int c) {
    std::vector<uint32_t>& ids = ids_[static_cast<size_t>(c)];
    if (ids.empty()) {
      if (view_ != nullptr) {
        ColumnValueIds(view_->column(static_cast<size_t>(c)), &ids);
      } else {
        ColumnValueIds(ColumnKeyView(table_.column(static_cast<size_t>(c))),
                       &ids);
      }
    }
    return ids;
  }

  // The partition of `cols`, refined from the longest prefix already on the
  // stack. parts_[d] is the partition of path_[0, d); parts_[0] holds every
  // row in one cluster.
  const StrippedPartition& Partition(const std::vector<int>& cols) {
    if (parts_.empty()) {
      const size_t n = table_.num_rows();
      count_.assign(n, 0);
      cursor_.resize(n);
      parts_.emplace_back();
      if (n >= 2) {
        parts_[0].rows.resize(n);
        for (size_t r = 0; r < n; ++r) parts_[0].rows[r] = uint32_t(r);
        parts_[0].ends = {0, uint32_t(n)};
      }
    }
    size_t depth = 0;
    while (depth < path_.size() && depth < cols.size() &&
           path_[depth] == cols[depth]) {
      ++depth;
    }
    path_.resize(depth);
    if (parts_.size() <= cols.size()) parts_.resize(cols.size() + 1);
    for (; depth < cols.size(); ++depth) {
      Refine(parts_[depth], Ids(cols[depth]), &parts_[depth + 1]);
      path_.push_back(cols[depth]);
    }
    return parts_[cols.size()];
  }

  // Splits every cluster of `in` by value id, keeping sub-clusters of two or
  // more rows in first-occurrence order; null rows drop out.
  void Refine(const StrippedPartition& in, const std::vector<uint32_t>& ids,
              StrippedPartition* out) {
    constexpr uint32_t kOpen = UINT32_MAX;  // Sub-cluster already started.
    out->rows.clear();
    out->ends.assign(1, 0);
    out->rows.reserve(in.rows.size());
    for (size_t i = 0; i < in.num_clusters(); ++i) {
      const uint32_t* begin = in.rows.data() + in.ends[i];
      const uint32_t* end = in.rows.data() + in.ends[i + 1];
      for (const uint32_t* r = begin; r != end; ++r) {
        if (ids[*r] != kNullValueId) ++count_[ids[*r]];
      }
      for (const uint32_t* r = begin; r != end; ++r) {
        uint32_t v = ids[*r];
        if (v == kNullValueId || count_[v] < 2) continue;
        if (count_[v] != kOpen) {
          cursor_[v] = uint32_t(out->rows.size());
          out->rows.resize(out->rows.size() + count_[v]);
          out->ends.push_back(uint32_t(out->rows.size()));
          count_[v] = kOpen;
        }
        out->rows[cursor_[v]++] = *r;
      }
      ClearCounts(begin, end, ids);
    }
  }

  // Restores the all-zero count_ invariant for the ids of one cluster.
  void ClearCounts(const uint32_t* begin, const uint32_t* end,
                   const std::vector<uint32_t>& ids) {
    for (const uint32_t* r = begin; r != end; ++r) {
      if (ids[*r] != kNullValueId) count_[ids[*r]] = 0;
    }
  }

  const Table& table_;
  const TableKeyView* view_;
  std::vector<std::vector<uint32_t>> ids_;  // Per column; empty until used.
  std::vector<int> path_;
  std::vector<StrippedPartition> parts_;
  // Per value id scratch, indexed by id (a row index): occurrences within
  // the current cluster (zero between clusters) and, during Refine, the
  // write position of the id's sub-cluster.
  std::vector<uint32_t> count_;
  std::vector<uint32_t> cursor_;
};

// The lattice of DiscoverUccs. A null `check` tests candidates by partition
// refinement; the reference kernels pass their own predicate.
std::vector<Ucc> RunLattice(const Table& table, const TableProfile& profile,
                            const UccOptions& options,
                            const TableKeyView* view, UccCandidateCheck check) {
  std::vector<Ucc> result;
  size_t ncols = table.num_columns();
  if (ncols == 0 || table.num_rows() == 0) return result;

  // Level 1: single columns.
  std::vector<int> eligible;
  for (size_t c = 0; c < ncols; ++c) {
    const ColumnProfile& p = profile.columns[c];
    if (p.non_null_count == 0) continue;
    if (p.distinct_ratio < options.min_distinct_ratio) continue;
    if (p.IsUnique()) {
      result.push_back(Ucc{{static_cast<int>(c)}});
    } else {
      eligible.push_back(static_cast<int>(c));
    }
  }

  // Higher levels: apriori over non-unique eligible columns; any candidate
  // containing a known UCC is non-minimal and skipped.
  PliLattice pli(table, view);
  std::vector<std::vector<int>> frontier;
  for (int c : eligible) frontier.push_back({c});
  size_t checks = 0;
  for (size_t arity = 2;
       arity <= options.max_arity && !frontier.empty(); ++arity) {
    std::vector<std::vector<int>> next;
    for (const std::vector<int>& base : frontier) {
      for (int c : eligible) {
        if (c <= base.back()) continue;  // Canonical extension order.
        std::vector<int> cand = base;
        cand.push_back(c);
        // Minimality: skip if a discovered UCC is a subset.
        bool covered = false;
        for (const Ucc& u : result) {
          if (IsSubset(u.columns, cand)) {
            covered = true;
            break;
          }
        }
        if (covered) continue;
        if (++checks > options.max_candidates) return result;
        // Counting prune (pigeonhole): the candidate has at most
        // prod(num_distinct) distinct tuples but at least
        // rows - sum(nulls) non-null-complete rows; fewer possible tuples
        // than rows forces a duplicate, so the scan can be skipped without
        // changing the result.
        uint64_t max_tuples = 1;
        uint64_t min_tuple_rows = table.num_rows();
        for (int cc : cand) {
          const ColumnProfile& p = profile.columns[cc];
          uint64_t d = p.num_distinct;
          if (d != 0 && max_tuples > UINT64_MAX / d) {
            max_tuples = UINT64_MAX;  // Saturate; never prunes.
          } else {
            max_tuples *= d;
          }
          uint64_t nulls = p.row_count - p.non_null_count;
          min_tuple_rows = nulls >= min_tuple_rows ? 0 : min_tuple_rows - nulls;
        }
        bool unique;
        if (max_tuples < min_tuple_rows) {
          unique = false;
        } else if (check != nullptr) {
          unique = check(table, cand);
        } else {
          unique = pli.IsUniqueExtension(base, c);
        }
        if (unique) {
          result.push_back(Ucc{cand});
        } else {
          next.push_back(std::move(cand));
        }
      }
    }
    frontier = std::move(next);
  }
  return result;
}

}  // namespace

std::vector<Ucc> DiscoverUccs(const Table& table, const TableProfile& profile,
                              const UccOptions& options,
                              const TableKeyView* view) {
  return RunLattice(table, profile, options, view, nullptr);
}

std::vector<Ucc> DiscoverUccsWithCheck(const Table& table,
                                       const TableProfile& profile,
                                       const UccOptions& options,
                                       UccCandidateCheck check) {
  return RunLattice(table, profile, options, nullptr, check);
}

}  // namespace autobi

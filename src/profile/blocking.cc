#include "profile/blocking.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/parallel.h"
#include "profile/sketch.h"

namespace autobi {

namespace {

// One inverted-index posting: a distinct hash of column `column` of table
// `table`. Sorted by (hash, table, column) so probing is a binary search
// followed by a run walk in deterministic order.
struct Posting {
  uint64_t hash = 0;
  int32_t table = 0;
  int32_t column = 0;
};

bool PostingLess(const Posting& a, const Posting& b) {
  return std::tie(a.hash, a.table, a.column) <
         std::tie(b.hash, b.table, b.column);
}

// The admission decision from aggregated hit counts. Both evaluation paths
// (pair-local binary searches, global-index probing) funnel their IDENTICAL
// integer hit counts through this one function, so the double arithmetic —
// and therefore the admission — is bit-identical between them.
bool AdmitFromHits(const ColumnProbeSet& p, int64_t bottom_hits,
                   int64_t heavy_hits, int64_t weight_hits,
                   const BlockingOptions& options) {
  const double f = options.min_probe_fraction;
  if (p.exact) {
    return weight_hits > 0 &&
           double(weight_hits) >= f * double(p.total_weight);
  }
  if (bottom_hits == 0 && heavy_hits == 0) return false;
  if (!p.bottom.empty() &&
      double(bottom_hits) >= f * double(p.bottom.size())) {
    return true;
  }
  if (!p.heavy.empty() && double(heavy_hits) >= f * double(p.heavy.size())) {
    return true;
  }
  return false;
}

}  // namespace

ColumnProbeSet BuildColumnProbes(const ColumnProfile& profile,
                                 const BlockingOptions& options) {
  const std::vector<uint64_t>& hashes = profile.distinct_hashes;
  const size_t n = hashes.size();
  ColumnProbeSet out;
  if (n == 0) return out;
  if (n <= options.probe_all_below) {
    // Exact mode: every value with its count — admission compares the true
    // row-weighted containment.
    out.exact = true;
    out.bottom = hashes;  // Already sorted/deduped.
    out.weights.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      out.weights.push_back(profile.distinct_counts[i]);
      out.total_weight += profile.distinct_counts[i];
    }
    return out;
  }
  // Bottom-k under a SplitMix64 remix of the stable hash. The profile
  // hashes are FNV-1a of the key bytes, whose weak avalanche clusters
  // sequential keys ("101", "102", ...) into nearly-consecutive hash runs —
  // a raw-hash bottom-k prefix then samples one cluster, not the column
  // (observed on the corpus: 285/324 shared values, 0/24 prefix hits). The
  // remix is a bijection with full avalanche, so the k smallest remixed
  // values are a uniform sample of the distinct values, and being a pure
  // function of the hash it stays deterministic and pair-local.
  {
    const size_t k = std::min(options.bottom_probes, n);
    std::vector<std::pair<uint64_t, uint64_t>> mixed(n);
    for (size_t i = 0; i < n; ++i) mixed[i] = {SplitMix64(hashes[i]), hashes[i]};
    std::partial_sort(mixed.begin(), mixed.begin() + long(k), mixed.end());
    out.bottom.reserve(k);
    for (size_t i = 0; i < k; ++i) out.bottom.push_back(mixed[i].second);
    std::sort(out.bottom.begin(), out.bottom.end());
  }
  if (options.heavy_probes > 0) {
    // Top hashes by occurrence count, ties by hash ascending. The hash
    // vector is strictly increasing, so index order IS hash order and the
    // comparator below is a deterministic total order.
    const size_t f = std::min(options.heavy_probes, n);
    std::vector<size_t> idx(n);
    std::iota(idx.begin(), idx.end(), size_t{0});
    std::partial_sort(idx.begin(), idx.begin() + long(f), idx.end(),
                      [&](size_t a, size_t b) {
                        if (profile.distinct_counts[a] !=
                            profile.distinct_counts[b]) {
                          return profile.distinct_counts[a] >
                                 profile.distinct_counts[b];
                        }
                        return a < b;
                      });
    out.heavy.reserve(f);
    for (size_t k = 0; k < f; ++k) out.heavy.push_back(hashes[idx[k]]);
    std::sort(out.heavy.begin(), out.heavy.end());
  }
  return out;
}

bool AdmitColumnPair(const ColumnProbeSet& probes,
                     const std::vector<uint64_t>& ref_hashes,
                     const BlockingOptions& options) {
  if (probes.bottom.empty() || ref_hashes.empty()) return false;
  int64_t bottom_hits = 0;
  int64_t heavy_hits = 0;
  int64_t weight_hits = 0;
  for (size_t i = 0; i < probes.bottom.size(); ++i) {
    if (std::binary_search(ref_hashes.begin(), ref_hashes.end(),
                           probes.bottom[i])) {
      ++bottom_hits;
      if (probes.exact) weight_hits += probes.weights[i];
    }
  }
  for (uint64_t h : probes.heavy) {
    if (std::binary_search(ref_hashes.begin(), ref_hashes.end(), h)) {
      ++heavy_hits;
    }
  }
  return AdmitFromHits(probes, bottom_hits, heavy_hits, weight_hits, options);
}

std::vector<ColumnProbeSet> BuildTableProbes(const TableProfile& profile,
                                             const BlockingOptions& options) {
  std::vector<ColumnProbeSet> out;
  out.reserve(profile.columns.size());
  for (const ColumnProfile& column : profile.columns) {
    out.push_back(BuildColumnProbes(column, options));
  }
  return out;
}

PairBlocking ComputePairBlocking(const std::vector<ColumnProbeSet>& dep_probes,
                                 const TableProfile& ref,
                                 const BlockingOptions& options) {
  PairBlocking out;
  for (int a = 0; a < int(dep_probes.size()); ++a) {
    const ColumnProbeSet& probes = dep_probes[size_t(a)];
    if (probes.bottom.empty()) continue;
    for (int b = 0; b < int(ref.columns.size()); ++b) {
      if (AdmitColumnPair(probes, ref.columns[size_t(b)].distinct_hashes,
                          options)) {
        out.admitted.emplace_back(a, b);
      }
    }
  }
  return out;
}

std::map<std::pair<int, int>, PairBlocking> BuildBlockingPlan(
    const std::vector<TableProfile>& profiles, const BlockingOptions& options,
    BlockingStats* stats, int threads, const RunContext* ctx) {
  const int n = int(profiles.size());
  BlockingStats local;
  local.table_pairs_total = n > 0 ? size_t(n) * size_t(n - 1) : 0;
  {
    size_t col_sum = 0;
    size_t col_sq = 0;
    for (const TableProfile& p : profiles) {
      col_sum += p.columns.size();
      col_sq += p.columns.size() * p.columns.size();
    }
    // Ordered cross-table column pairs: (sum cols)^2 - sum cols^2.
    local.column_pairs_total = col_sum * col_sum - col_sq;
  }

  // --- Build: every distinct hash of every column becomes one posting.
  std::vector<Posting> postings;
  {
    size_t total = 0;
    for (const TableProfile& p : profiles) {
      for (const ColumnProfile& c : p.columns) total += c.distinct_hashes.size();
    }
    postings.reserve(total);
  }
  for (int ti = 0; ti < n; ++ti) {
    const TableProfile& p = profiles[size_t(ti)];
    for (int c = 0; c < int(p.columns.size()); ++c) {
      const std::vector<uint64_t>& hashes =
          p.columns[size_t(c)].distinct_hashes;
      if (hashes.empty()) continue;
      for (uint64_t h : hashes) postings.push_back({h, ti, c});
    }
  }
  std::sort(postings.begin(), postings.end(), PostingLess);

  // --- Probe: each dependent table's columns against the index, one pool
  // item per dependent table, largest first (slot-per-table output keeps
  // the plan thread-count invariant).
  struct Hit {
    int tj;
    int a;
    int b;
    bool operator<(const Hit& o) const {
      return std::tie(tj, a, b) < std::tie(o.tj, o.a, o.b);
    }
    bool operator==(const Hit& o) const {
      return tj == o.tj && a == o.a && b == o.b;
    }
  };
  const std::vector<size_t> order = LargestFirst(size_t(n), [&](size_t i) {
    return profiles[i].row_count * profiles[i].columns.size();
  });
  std::vector<std::vector<Hit>> hits_by_table(order.size());
  ParallelFor(
      size_t(n),
      [&](size_t k) {
        const size_t ti = order[k];
        std::vector<Hit>& hits = hits_by_table[ti];
        // Table-boundary stop poll: a tripped run stops issuing probes;
        // the same stop gates every downstream pair scan, so the caller's
        // degradation marking already covers the skipped work.
        if (ctx != nullptr && ctx->StopRequested()) return;
        const TableProfile& p = profiles[ti];
        for (int a = 0; a < int(p.columns.size()); ++a) {
          ColumnProbeSet probes =
              BuildColumnProbes(p.columns[size_t(a)], options);
          if (probes.bottom.empty()) continue;
          // Per-(referenced column) hit accumulators for this dependent
          // column — the same integers AdmitColumnPair would count pair by
          // pair, gathered through the index instead.
          struct Counts {
            int64_t bottom = 0;
            int64_t heavy = 0;
            int64_t weight = 0;
          };
          std::map<std::pair<int, int>, Counts> counts;  // (tj, b) -> hits.
          auto walk = [&](uint64_t h, bool is_bottom, int64_t weight) {
            Posting key{h, 0, 0};
            auto it = std::lower_bound(postings.begin(), postings.end(), key,
                                       PostingLess);
            for (; it != postings.end() && it->hash == h; ++it) {
              if (it->table == int(ti)) continue;
              Counts& c = counts[{it->table, it->column}];
              if (is_bottom) {
                ++c.bottom;
                c.weight += weight;
              } else {
                ++c.heavy;
              }
            }
          };
          for (size_t i = 0; i < probes.bottom.size(); ++i) {
            walk(probes.bottom[i], /*is_bottom=*/true,
                 probes.exact ? probes.weights[i] : 0);
          }
          for (uint64_t h : probes.heavy) {
            walk(h, /*is_bottom=*/false, 0);
          }
          for (const auto& [key, c] : counts) {
            if (AdmitFromHits(probes, c.bottom, c.heavy, c.weight, options)) {
              hits.push_back({key.first, a, key.second});
            }
          }
        }
        std::sort(hits.begin(), hits.end());
      },
      threads);

  std::map<std::pair<int, int>, PairBlocking> plan;
  for (int ti = 0; ti < n; ++ti) {
    for (const Hit& h : hits_by_table[size_t(ti)]) {
      plan[{ti, h.tj}].admitted.emplace_back(h.a, h.b);
      ++local.column_pairs_admitted;
    }
  }
  // Hits were sorted (tj, a, b) per dependent table, so each pair's
  // admitted list is already (a, b)-lexicographic — the exhaustive unary
  // loop order restricted to admitted pairs.
  local.column_pairs_pruned =
      local.column_pairs_total - local.column_pairs_admitted;
  local.table_pairs_active = plan.size();
  if (stats != nullptr) *stats = local;
  return plan;
}

}  // namespace autobi

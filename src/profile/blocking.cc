#include "profile/blocking.h"

#include <algorithm>
#include <numeric>
#include <tuple>

#include "common/parallel.h"
#include "profile/sketch.h"

namespace autobi {

namespace {

// Probe material of one dependent column. Exact mode (<= probe_all_below
// distinct values) carries every distinct hash plus its occurrence count,
// so admission compares the exact row-weighted containment. Sampled mode
// carries the two probe classes separately (a hash heavy AND sampled is
// probed in both). A column with no distinct values builds an empty set
// and is never admitted (it can satisfy no containment threshold > 0).
struct ColumnProbeSet {
  bool exact = false;
  // Exact: all distinct hashes (ascending). Sampled: the uniform
  // bottom-under-remix sample, sorted ascending.
  std::vector<uint64_t> bottom;
  // Exact only: occurrence counts aligned with `bottom`.
  std::vector<int64_t> weights;
  // Exact only: the containment denominator (non-null row count).
  int64_t total_weight = 0;
  // Sampled only: top-by-count probes, sorted ascending.
  std::vector<uint64_t> heavy;
};

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

// The admission decision from aggregated hit counts. Both evaluation modes
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

// The pair-local admission predicate: probes `ref_hashes` (a sorted
// distinct-hash vector) with every probe of `probes`. Kept out of line:
// inlined into ComputePairBlocking's column loop (GCC 12, -O3) it made the
// blocking of a one-table star or tpch delta 10-20% slower.
[[gnu::noinline]] bool AdmitColumnPair(const ColumnProbeSet& probes,
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

// Pair-local admission of every column pair of (dep -> ref), from the
// dependent table's probe sets, in (a, b)-lexicographic order.
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

using Plan = std::map<std::pair<int, int>, PairBlocking>;
using TableProbes = std::vector<std::vector<ColumnProbeSet>>;

// Every ordered pair: one global inverted index over every distinct hash of
// every profiled column, probed by each dependent table's columns.
Plan ProbeIndex(const std::vector<TableProfile>& profiles,
                const TableProbes& probes, const std::vector<size_t>& order,
                const BlockingOptions& options, int threads,
                const RunContext* ctx) {
  const int n = int(profiles.size());
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
      for (uint64_t h : p.columns[size_t(c)].distinct_hashes) {
        postings.push_back({h, ti, c});
      }
    }
  }
  std::sort(postings.begin(), postings.end(), PostingLess);

  // One pool item per dependent table, largest first (slot-per-table output
  // keeps the plan thread-count invariant).
  struct Hit {
    int tj;
    int a;
    int b;
    bool operator<(const Hit& o) const {
      return std::tie(tj, a, b) < std::tie(o.tj, o.a, o.b);
    }
  };
  std::vector<std::vector<Hit>> hits_by_table(profiles.size());
  ParallelFor(
      size_t(n),
      [&](size_t k) {
        const size_t ti = order[k];
        if (ctx != nullptr && ctx->StopRequested()) return;
        std::vector<Hit>& hits = hits_by_table[ti];
        for (int a = 0; a < int(probes[ti].size()); ++a) {
          const ColumnProbeSet& p = probes[ti][size_t(a)];
          if (p.bottom.empty()) continue;
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
          for (size_t i = 0; i < p.bottom.size(); ++i) {
            walk(p.bottom[i], /*is_bottom=*/true, p.exact ? p.weights[i] : 0);
          }
          for (uint64_t h : p.heavy) walk(h, /*is_bottom=*/false, 0);
          for (const auto& [key, c] : counts) {
            if (AdmitFromHits(p, c.bottom, c.heavy, c.weight, options)) {
              hits.push_back({key.first, a, key.second});
            }
          }
        }
        std::sort(hits.begin(), hits.end());
      },
      threads);

  // Hits are sorted (tj, a, b) per dependent table, so each pair's admitted
  // list is already (a, b)-lexicographic.
  Plan plan;
  for (int ti = 0; ti < n; ++ti) {
    for (const Hit& h : hits_by_table[size_t(ti)]) {
      plan[{ti, h.tj}].admitted.emplace_back(h.a, h.b);
    }
  }
  return plan;
}

// Only the in-scope pairs, each admitted pair-locally.
Plan ProbePairs(const std::vector<TableProfile>& profiles,
                const TableProbes& probes,
                const std::vector<std::pair<int, int>>& pairs,
                const BlockingOptions& options, int threads,
                const RunContext* ctx) {
  std::vector<PairBlocking> per_pair = ParallelMap(
      pairs.size(),
      [&](size_t k) {
        if (ctx != nullptr && ctx->StopRequested()) return PairBlocking{};
        return ComputePairBlocking(probes[size_t(pairs[k].first)],
                                   profiles[size_t(pairs[k].second)], options);
      },
      threads);
  Plan plan;
  for (size_t k = 0; k < pairs.size(); ++k) {
    if (!per_pair[k].admitted.empty()) {
      plan.emplace_hint(plan.end(), pairs[k], std::move(per_pair[k]));
    }
  }
  return plan;
}

}  // namespace

std::map<std::pair<int, int>, PairBlocking> BuildBlockingPlan(
    const std::vector<TableProfile>& profiles, const BlockingOptions& options,
    BlockingStats* stats, int threads, const RunContext* ctx,
    const std::vector<char>* rescan) {
  const int n = int(profiles.size());
  auto in_scope = [&](int t) {
    return rescan == nullptr || (*rescan)[size_t(t)] != 0;
  };
  // In scope: every ordered cross-table pair except those of two unflagged
  // ("kept") tables. k tables with column counts c_i form k(k - 1) ordered
  // table pairs and (sum c_i)^2 - sum c_i^2 ordered column pairs.
  BlockingStats local;
  size_t kept = 0;
  size_t col_sum = 0, col_sq = 0, kept_sum = 0, kept_sq = 0;
  for (int t = 0; t < n; ++t) {
    const size_t c = profiles[size_t(t)].columns.size();
    col_sum += c;
    col_sq += c * c;
    if (!in_scope(t)) {
      ++kept;
      kept_sum += c;
      kept_sq += c * c;
    }
  }
  auto table_pairs = [](size_t k) { return k < 2 ? 0 : k * (k - 1); };
  local.table_pairs_total = table_pairs(size_t(n)) - table_pairs(kept);
  local.column_pairs_total =
      (col_sum * col_sum - col_sq) - (kept_sum * kept_sum - kept_sq);

  Plan plan;
  if (local.table_pairs_total > 0) {
    // Every table is the dependent side of some in-scope pair, so each
    // builds its probe sets once, largest first. A table skipped after a
    // stop keeps none and admits nothing.
    const std::vector<size_t> order = LargestFirst(size_t(n), [&](size_t i) {
      return profiles[i].row_count * profiles[i].columns.size();
    });
    TableProbes probes(profiles.size());
    ParallelFor(
        size_t(n),
        [&](size_t k) {
          if (ctx != nullptr && ctx->StopRequested()) return;
          const TableProfile& p = profiles[order[k]];
          std::vector<ColumnProbeSet>& out = probes[order[k]];
          out.reserve(p.columns.size());
          for (const ColumnProfile& c : p.columns) {
            out.push_back(BuildColumnProbes(c, options));
          }
        },
        threads);
    if (kept < 2) {
      plan = ProbeIndex(profiles, probes, order, options, threads, ctx);
    } else {
      std::vector<std::pair<int, int>> pairs;
      for (int ti = 0; ti < n; ++ti) {
        for (int tj = 0; tj < n; ++tj) {
          if (ti != tj && (in_scope(ti) || in_scope(tj))) {
            pairs.emplace_back(ti, tj);
          }
        }
      }
      plan = ProbePairs(profiles, probes, pairs, options, threads, ctx);
    }
  }
  for (const auto& [key, admission] : plan) {
    local.column_pairs_admitted += admission.admitted.size();
  }
  local.column_pairs_pruned =
      local.column_pairs_total - local.column_pairs_admitted;
  local.table_pairs_active = plan.size();
  if (stats != nullptr) *stats = local;
  return plan;
}

}  // namespace autobi

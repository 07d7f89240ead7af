#include "profile/blocking.h"

#include <algorithm>
#include <atomic>
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
  //
  // Each probe class is kept in a bounded heap whose root is its worst kept
  // entry, replaced whenever a scan of the hashes finds a better one. Both
  // orders are strict, so a heap ends with exactly the entries a full sort
  // would put first, without copying the column's hashes.
  {
    const size_t k = std::min(options.bottom_probes, n);
    std::vector<std::pair<uint64_t, uint64_t>> kept;  // (remix, hash).
    kept.reserve(k);
    for (size_t i = 0; i < k; ++i) {
      kept.push_back({SplitMix64(hashes[i]), hashes[i]});
    }
    std::make_heap(kept.begin(), kept.end());
    if (k > 0) {
      // Distinct hashes have distinct remixes, so the remix alone orders
      // a new hash against the largest kept pair.
      uint64_t largest = kept.front().first;
      for (size_t i = k; i < n; ++i) {
        const uint64_t remix = SplitMix64(hashes[i]);
        if (remix >= largest) continue;
        std::pop_heap(kept.begin(), kept.end());
        kept.back() = {remix, hashes[i]};
        std::push_heap(kept.begin(), kept.end());
        largest = kept.front().first;
      }
    }
    out.bottom.reserve(k);
    for (const auto& entry : kept) out.bottom.push_back(entry.second);
    std::sort(out.bottom.begin(), out.bottom.end());
  }
  if (options.heavy_probes > 0) {
    // Top hashes by occurrence count, ties by hash ascending. The hash
    // vector is strictly increasing, so index order IS hash order.
    const size_t f = std::min(options.heavy_probes, n);
    const std::vector<int32_t>& counts = profile.distinct_counts;
    auto heavier = [&](size_t a, size_t b) {
      return counts[a] != counts[b] ? counts[a] > counts[b] : a < b;
    };
    std::vector<size_t> kept(f);  // Indices; the root is the lightest.
    std::iota(kept.begin(), kept.end(), size_t{0});
    std::make_heap(kept.begin(), kept.end(), heavier);
    int32_t lightest = counts[kept.front()];
    for (size_t i = f; i < n; ++i) {
      // Index i follows every kept index, so it wins only on count.
      if (counts[i] <= lightest) continue;
      std::pop_heap(kept.begin(), kept.end(), heavier);
      kept.back() = i;
      std::push_heap(kept.begin(), kept.end(), heavier);
      lightest = counts[kept.front()];
    }
    out.heavy.reserve(f);
    for (size_t i : kept) out.heavy.push_back(hashes[i]);
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

// One probe of the global index: `hash` is a probe of dependent column
// `column` (an index into the index's column list). A `weight` >= 0 marks a
// bottom probe and is its occurrence count in exact mode (0 when sampled);
// kHeavyProbe marks a heavy probe. Profile counts are int32, so 16 bytes
// hold the weight losslessly.
struct ProbeEntry {
  uint64_t hash;
  uint32_t column;
  int32_t weight;
};
constexpr int32_t kHeavyProbe = -1;

// Every ordered pair: the probes of every dependent column, indexed by hash,
// and every referenced column's sorted distinct hashes streamed through the
// index once. The index holds only the probes (a few per column), so its
// cost grows with the probes, not with the data.
Plan ProbeIndex(const std::vector<TableProfile>& profiles,
                const TableProbes& probes, const BlockingOptions& options,
                int threads, const RunContext* ctx) {
  const int n = int(profiles.size());
  // Dependent columns with probes, table-major, so the columns of table t
  // are the index range [first[t], first[t + 1]).
  struct Dependent {
    int table;
    int column;
    const ColumnProbeSet* probes;
  };
  std::vector<Dependent> deps;
  std::vector<uint32_t> first(size_t(n) + 1, 0);
  size_t total = 0;
  for (int ti = 0; ti < n; ++ti) {
    first[size_t(ti)] = uint32_t(deps.size());
    for (int a = 0; a < int(probes[size_t(ti)].size()); ++a) {
      const ColumnProbeSet& p = probes[size_t(ti)][size_t(a)];
      if (p.bottom.empty()) continue;
      deps.push_back({ti, a, &p});
      total += p.bottom.size() + p.heavy.size();
    }
  }
  first[size_t(n)] = uint32_t(deps.size());
  if (deps.empty()) return {};

  // The entries, grouped by bucket: bucket k holds [start[k], start[k + 1]).
  // Buckets are keyed by the SplitMix64 remix (raw FNV-1a hashes cluster),
  // two per entry rounded up to a power of two, so most lookups of a hash
  // nobody probes read one empty bucket. Counting the buckets, then placing
  // each entry, costs two passes over the probes and no sort.
  size_t buckets = 1;
  while (buckets < 2 * total) buckets <<= 1;
  const uint64_t mask = buckets - 1;
  std::vector<uint32_t> start(buckets + 1, 0);
  auto for_each_probe = [&](auto&& fn) {
    for (uint32_t d = 0; d < deps.size(); ++d) {
      const ColumnProbeSet& p = *deps[d].probes;
      for (size_t i = 0; i < p.bottom.size(); ++i) {
        fn(ProbeEntry{p.bottom[i], d, p.exact ? int32_t(p.weights[i]) : 0});
      }
      for (uint64_t h : p.heavy) fn(ProbeEntry{h, d, kHeavyProbe});
    }
  };
  // start[k] counts bucket k, then marks its end, then (filled back to
  // front) its beginning.
  for_each_probe([&](const ProbeEntry& e) {
    ++start[SplitMix64(e.hash) & mask];
  });
  for (size_t k = 1; k <= buckets; ++k) start[k] += start[k - 1];
  std::vector<ProbeEntry> entries(total);
  for_each_probe([&](const ProbeEntry& e) {
    entries[--start[SplitMix64(e.hash) & mask]] = e;
  });

  // Referenced columns, largest distinct count first. Each worker claims
  // columns from one counter and counts hits in its own per-dependent
  // array; a column's admissions land in its own slot, so the plan does not
  // depend on which worker streamed it.
  std::vector<std::pair<int, int>> refs;
  for (int tj = 0; tj < n; ++tj) {
    for (int b = 0; b < int(profiles[size_t(tj)].columns.size()); ++b) {
      if (!profiles[size_t(tj)].columns[size_t(b)].distinct_hashes.empty()) {
        refs.emplace_back(tj, b);
      }
    }
  }
  const std::vector<size_t> order = LargestFirst(refs.size(), [&](size_t r) {
    return profiles[size_t(refs[r].first)]
        .columns[size_t(refs[r].second)]
        .distinct_hashes.size();
  });
  std::vector<std::vector<uint32_t>> admitted(refs.size());
  std::atomic<size_t> next{0};
  const size_t workers =
      std::min(size_t(ResolveThreads(threads)), refs.size());
  ParallelFor(
      workers,
      [&](size_t) {
        // The same integers AdmitColumnPair counts pair by pair, gathered
        // for every dependent column at once.
        struct Counts {
          int64_t bottom = 0;
          int64_t heavy = 0;
          int64_t weight = 0;
        };
        std::vector<Counts> counts;
        std::vector<uint32_t> touched;
        for (size_t k = next.fetch_add(1); k < refs.size();
             k = next.fetch_add(1)) {
          if (ctx != nullptr && ctx->StopRequested()) return;
          if (counts.empty()) counts.resize(deps.size());
          const size_t r = order[k];
          const auto [tj, b] = refs[r];
          // Probes of the referenced column's own table are skipped.
          const uint32_t own_first = first[size_t(tj)];
          const uint32_t own_count = first[size_t(tj) + 1] - own_first;
          for (uint64_t h :
               profiles[size_t(tj)].columns[size_t(b)].distinct_hashes) {
            const uint64_t bucket = SplitMix64(h) & mask;
            for (uint32_t e = start[bucket]; e < start[bucket + 1]; ++e) {
              const ProbeEntry& probe = entries[e];
              if (probe.hash != h || probe.column - own_first < own_count) {
                continue;
              }
              Counts& c = counts[probe.column];
              if (c.bottom == 0 && c.heavy == 0) {
                touched.push_back(probe.column);
              }
              if (probe.weight == kHeavyProbe) {
                ++c.heavy;
              } else {
                ++c.bottom;
                c.weight += probe.weight;
              }
            }
          }
          for (uint32_t d : touched) {
            const Counts& c = counts[d];
            if (AdmitFromHits(*deps[d].probes, c.bottom, c.heavy, c.weight,
                              options)) {
              admitted[r].push_back(d);
            }
            counts[d] = Counts{};
          }
          touched.clear();
        }
      },
      threads);

  // Sorted (ti, tj, a, b), each pair's admitted list is (a, b)-lexicographic.
  std::vector<std::tuple<int, int, int, int>> hits;
  for (size_t r = 0; r < refs.size(); ++r) {
    for (uint32_t d : admitted[r]) {
      hits.emplace_back(deps[d].table, refs[r].first, deps[d].column,
                        refs[r].second);
    }
  }
  std::sort(hits.begin(), hits.end());
  Plan plan;
  for (const auto& [ti, tj, a, b] : hits) {
    plan.emplace_hint(plan.end(), std::make_pair(ti, tj), PairBlocking{})
        ->second.admitted.emplace_back(a, b);
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
      plan = ProbeIndex(profiles, probes, options, threads, ctx);
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

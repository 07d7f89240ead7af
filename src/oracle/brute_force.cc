#include "oracle/brute_force.h"

#include <algorithm>
#include <limits>
#include <map>

#include "common/check.h"
#include "graph/kmca_cc.h"
#include "graph/validate.h"

namespace autobi {

std::optional<std::vector<int>> BruteForceMinArborescence(
    int num_vertices, const std::vector<Arc>& arcs, int root) {
  // Collect candidate in-arcs per non-root vertex.
  std::vector<std::vector<int>> in_arcs(static_cast<size_t>(num_vertices));
  for (size_t i = 0; i < arcs.size(); ++i) {
    const Arc& a = arcs[i];
    if (a.src == a.dst || a.dst == root) continue;
    in_arcs[size_t(a.dst)].push_back(static_cast<int>(i));
  }
  std::vector<int> targets;
  for (int v = 0; v < num_vertices; ++v) {
    if (v == root) continue;
    if (in_arcs[size_t(v)].empty()) return std::nullopt;
    targets.push_back(v);
  }

  std::optional<std::vector<int>> best;
  double best_weight = std::numeric_limits<double>::infinity();
  std::vector<size_t> choice(targets.size(), 0);
  for (;;) {
    std::vector<int> selection;
    std::vector<std::pair<int, int>> pairs;
    for (size_t t = 0; t < targets.size(); ++t) {
      int ai = in_arcs[size_t(targets[t])][choice[t]];
      selection.push_back(ai);
      pairs.emplace_back(arcs[size_t(ai)].src, arcs[size_t(ai)].dst);
    }
    if (IsSpanningArborescence(num_vertices, pairs, root)) {
      double w = ArcSetWeight(arcs, selection);
      if (w < best_weight) {
        best_weight = w;
        best = selection;
      }
    }
    // Odometer increment.
    size_t t = 0;
    while (t < targets.size()) {
      if (++choice[t] < in_arcs[size_t(targets[t])].size()) break;
      choice[t] = 0;
      ++t;
    }
    if (t == targets.size()) break;
  }
  return best;
}

namespace {

KmcaResult BruteForceSubsets(const JoinGraph& graph, double penalty_weight,
                             bool enforce_fk_once) {
  size_t m = graph.num_edges();
  // invariant: callers gate on the brute-force size limit before calling.
  AUTOBI_CHECK_MSG(m <= 22, "brute force limited to 22 edges");
  int n = graph.num_vertices();
  KmcaResult best;
  best.cost = std::numeric_limits<double>::infinity();
  // Hoisted out of the 2^m loop (the fuzzer runs thousands of these), with
  // an inline in-degree pre-filter: most random subsets die on in-degree
  // before the cycle check, so skip the IsKArborescence allocations early.
  std::vector<int> ids;
  std::vector<std::pair<int, int>> pairs;
  std::vector<int> in_degree(static_cast<size_t>(n), 0);
  for (uint64_t bits = 0; bits < (1ULL << m); ++bits) {
    ids.clear();
    pairs.clear();
    std::fill(in_degree.begin(), in_degree.end(), 0);
    bool in_degree_ok = true;
    for (size_t i = 0; i < m; ++i) {
      if (bits & (1ULL << i)) {
        const JoinEdge& e = graph.edge(static_cast<int>(i));
        if (++in_degree[static_cast<size_t>(e.dst)] > 1) {
          in_degree_ok = false;
          break;
        }
        ids.push_back(static_cast<int>(i));
        pairs.emplace_back(e.src, e.dst);
      }
    }
    if (!in_degree_ok) continue;
    if (!IsKArborescence(graph.num_vertices(), pairs)) continue;
    if (enforce_fk_once && !SatisfiesFkOnce(graph, ids)) continue;
    double cost = KArborescenceCost(graph, ids, penalty_weight);
    if (cost < best.cost) {
      best.cost = cost;
      best.edge_ids = ids;
      best.k = graph.num_vertices() - static_cast<int>(ids.size());
      best.feasible = true;
    }
  }
  return best;
}

}  // namespace

KmcaResult BruteForceKmca(const JoinGraph& graph, double penalty_weight) {
  return BruteForceSubsets(graph, penalty_weight, /*enforce_fk_once=*/false);
}

KmcaResult BruteForceKmcaCc(const JoinGraph& graph, double penalty_weight) {
  return BruteForceSubsets(graph, penalty_weight, /*enforce_fk_once=*/true);
}

double EstimateBruteForceKmcaCalls(int num_vertices) {
  // sum_k S(n,k) * k, with Stirling-second-kind recurrence in doubles
  // (saturates at +inf for very large n, which is fine on a log-scale plot).
  int n = num_vertices;
  if (n <= 0) return 0.0;
  std::vector<double> prev(static_cast<size_t>(n) + 1, 0.0);
  prev[0] = 1.0;  // S(0,0) = 1.
  for (int row = 1; row <= n; ++row) {
    std::vector<double> cur(static_cast<size_t>(n) + 1, 0.0);
    for (int k = 1; k <= row; ++k) {
      cur[size_t(k)] = prev[size_t(k - 1)] + double(k) * prev[size_t(k)];
    }
    prev = std::move(cur);
  }
  double total = 0.0;
  for (int k = 1; k <= n; ++k) total += prev[size_t(k)] * double(k);
  return total;
}

double EstimateUnprunedBranchCalls(const JoinGraph& graph) {
  // Only edges with probability >= 0.5 can ever appear in a k-MCA
  // relaxation (cheaper to drop them than to pay the virtual-edge penalty),
  // so exhaustive branching enumerates one choice per conflict group among
  // those edges.
  std::map<int, long> group_sizes;
  for (const JoinEdge& e : graph.edges()) {
    if (e.probability >= 0.5) ++group_sizes[e.source_key];
  }
  double product = 1.0;
  for (const auto& [key, size] : group_sizes) {
    (void)key;
    if (size >= 2) product *= double(size);
  }
  return product;
}

}  // namespace autobi

#include "oracle/solver_oracle.h"

#include <algorithm>
#include <limits>
#include <map>
#include <tuple>
#include <utility>

#include "common/check.h"

namespace autobi {

namespace {

// --- Recursive Chu-Liu/Edmonds. -------------------------------------------

// One recursion level of the contraction algorithm. `arcs` are this level's
// arcs; returns indices into `arcs`.
std::optional<std::vector<int>> SolveRecursive(int n,
                                               const std::vector<Arc>& arcs,
                                               int root) {
  // 1. Cheapest incoming arc for every non-root vertex.
  std::vector<int> best(static_cast<size_t>(n), -1);
  for (size_t i = 0; i < arcs.size(); ++i) {
    const Arc& a = arcs[i];
    if (a.src == a.dst || a.dst == root) continue;
    int v = a.dst;
    if (best[v] < 0 || a.weight < arcs[size_t(best[v])].weight) {
      best[v] = static_cast<int>(i);
    }
  }
  for (int v = 0; v < n; ++v) {
    if (v != root && best[v] < 0) return std::nullopt;  // Unreachable.
  }

  // 2. Detect cycles in the functional graph v -> src(best[v]).
  // color: 0 = unvisited, 1 = on current path, 2 = finished.
  std::vector<int> color(static_cast<size_t>(n), 0);
  std::vector<int> cycle_id(static_cast<size_t>(n), -1);
  int num_cycles = 0;
  for (int start = 0; start < n; ++start) {
    if (color[start] != 0) continue;
    int v = start;
    std::vector<int> path;
    while (v != root && color[v] == 0) {
      color[v] = 1;
      path.push_back(v);
      v = arcs[size_t(best[v])].src;
    }
    if (v != root && color[v] == 1) {
      // Found a new cycle: the path suffix starting at v.
      int c = num_cycles++;
      size_t pos = 0;
      while (path[pos] != v) ++pos;
      for (size_t k = pos; k < path.size(); ++k) cycle_id[path[k]] = c;
    }
    for (int u : path) color[u] = 2;
  }

  if (num_cycles == 0) {
    std::vector<int> result;
    result.reserve(static_cast<size_t>(n) - 1);
    for (int v = 0; v < n; ++v) {
      if (v != root) result.push_back(best[v]);
    }
    return result;
  }

  // 3. Contract each cycle to a super-vertex.
  std::vector<int> comp(static_cast<size_t>(n), -1);
  int next = num_cycles;  // Cycle c maps to component c.
  for (int v = 0; v < n; ++v) {
    comp[v] = cycle_id[v] >= 0 ? cycle_id[v] : next++;
  }
  int n_contracted = next;

  std::vector<Arc> sub_arcs;
  std::vector<int> parent_arc;  // sub arc index -> this-level arc index.
  sub_arcs.reserve(arcs.size());
  parent_arc.reserve(arcs.size());
  for (size_t i = 0; i < arcs.size(); ++i) {
    const Arc& a = arcs[i];
    if (a.src == a.dst || a.dst == root) continue;
    int nu = comp[a.src];
    int nv = comp[a.dst];
    if (nu == nv) continue;  // Internal to a contracted component.
    double w = a.weight;
    if (cycle_id[a.dst] >= 0) {
      // Entering a cycle: pay the difference against the cycle's own in-arc
      // at the entry vertex (the cycle arc it would displace).
      w -= arcs[size_t(best[a.dst])].weight;
    }
    sub_arcs.push_back(Arc{nu, nv, w});
    parent_arc.push_back(static_cast<int>(i));
  }

  auto sub = SolveRecursive(n_contracted, sub_arcs, comp[root]);
  if (!sub.has_value()) return std::nullopt;

  // 4. Expand: chosen sub-arcs map back; each cycle keeps all its internal
  // best-arcs except the one displaced at the entry vertex.
  std::vector<int> result;
  result.reserve(static_cast<size_t>(n) - 1);
  std::vector<char> is_entry_head(static_cast<size_t>(n), 0);
  for (int si : *sub) {
    int ai = parent_arc[size_t(si)];
    result.push_back(ai);
    is_entry_head[arcs[size_t(ai)].dst] = 1;
  }
  for (int v = 0; v < n; ++v) {
    if (v == root) continue;
    if (cycle_id[v] >= 0 && !is_entry_head[v]) result.push_back(best[v]);
  }
  return result;
}

// --- Depth-first k-MCA-CC. ------------------------------------------------
// kBoundEps, AssembleResult and GreedyThinnedFallback are frozen copies of
// the private helpers of graph/kmca_cc.cc, so the oracle does not move when
// the production solver does.

constexpr double kBoundEps = 1e-12;

KmcaResult AssembleResult(const JoinGraph& graph, double best_cost,
                          std::vector<int> best_edges) {
  KmcaResult result;
  result.edge_ids = std::move(best_edges);
  result.cost = best_cost;
  result.k = graph.num_vertices() - static_cast<int>(result.edge_ids.size());
  result.feasible = true;
  return result;
}

// Budget-exhausted fallback: the unconstrained relaxation thinned to one
// edge per conflict group (cheapest wins, ties to the lowest id).
void GreedyThinnedFallback(const JoinGraph& graph,
                           const KmcaCcOptions& options, KmcaCcStats* stats,
                           double* best_cost, std::vector<int>* best_edges) {
  KmcaResult relaxed =
      SolveKmca(graph, options.penalty_weight, {}, &stats->one_mca_calls);
  std::vector<std::tuple<int, double, int>> by_key;
  by_key.reserve(relaxed.edge_ids.size());
  for (int id : relaxed.edge_ids) {
    const JoinEdge& e = graph.edge(id);
    by_key.emplace_back(e.source_key, e.weight, id);
  }
  std::sort(by_key.begin(), by_key.end());
  best_edges->clear();
  for (size_t i = 0; i < by_key.size(); ++i) {
    if (i == 0 || std::get<0>(by_key[i]) != std::get<0>(by_key[i - 1])) {
      best_edges->push_back(std::get<2>(by_key[i]));
    }
  }
  std::sort(best_edges->begin(), best_edges->end());
  *best_cost = KArborescenceCost(graph, *best_edges, options.penalty_weight);
}

std::vector<int> LegacyFindConflictSet(const JoinGraph& graph,
                                       const std::vector<int>& edge_ids) {
  std::map<int, std::vector<int>> by_source;
  for (int id : edge_ids) {
    by_source[graph.edge(id).source_key].push_back(id);
  }
  std::vector<int> best;
  for (auto& [key, group] : by_source) {
    (void)key;
    if (group.size() >= 2 && group.size() > best.size()) {
      best = group;
    }
  }
  return best;
}

struct LegacySearchState {
  const JoinGraph* graph;
  KmcaCcOptions options;
  KmcaCcStats* stats;
  double best_cost = std::numeric_limits<double>::infinity();
  std::vector<int> best_edges;
  bool have_best = false;
};

// Recursive branch-and-bound (Algorithm 3). `mask[e]` marks edges still in
// the graph of this subproblem.
void LegacySearch(LegacySearchState& state, std::vector<char>& mask) {
  if (state.stats->one_mca_calls >= state.options.max_one_mca_calls) {
    state.stats->budget_exhausted = true;
    return;
  }
  ++state.stats->nodes;

  // Line 1: relaxation — solve unconstrained k-MCA on the masked graph.
  KmcaResult relaxed = SolveKmca(*state.graph, state.options.penalty_weight,
                                 mask, &state.stats->one_mca_calls);

  // Line 4: bound — constraints can only increase cost.
  if (state.have_best && relaxed.cost >= state.best_cost - kBoundEps) {
    ++state.stats->pruned;
    return;
  }

  // Line 2: feasibility.
  std::vector<int> conflict =
      LegacyFindConflictSet(*state.graph, relaxed.edge_ids);
  if (conflict.empty()) {
    state.best_cost = relaxed.cost;
    state.best_edges = relaxed.edge_ids;
    state.have_best = true;
    return;
  }

  // Lines 7-11: branch — keep exactly one edge of the conflict set per
  // child.
  for (int keep : conflict) {
    for (int id : conflict) {
      mask[size_t(id)] = (id == keep) ? 1 : 0;
    }
    LegacySearch(state, mask);
  }
  for (int id : conflict) mask[size_t(id)] = 1;  // Restore.
}

}  // namespace

std::optional<std::vector<int>> SolveMinCostArborescenceLegacy(
    int num_vertices, const std::vector<Arc>& arcs, int root) {
  // invariant: the solver passes a root it constructed in range.
  AUTOBI_CHECK(root >= 0 && root < num_vertices);
  if (num_vertices == 1) return std::vector<int>{};
  return SolveRecursive(num_vertices, arcs, root);
}

KmcaResult SolveKmcaCcLegacy(const JoinGraph& graph,
                             const KmcaCcOptions& options,
                             KmcaCcStats* stats) {
  KmcaCcStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  *stats = KmcaCcStats{};

  if (!options.enforce_fk_once) {
    return SolveKmca(graph, options.penalty_weight, {},
                     &stats->one_mca_calls);
  }

  LegacySearchState state;
  state.graph = &graph;
  state.options = options;
  state.stats = stats;
  std::vector<char> mask(graph.num_edges(), 1);
  LegacySearch(state, mask);

  if (!state.have_best) {
    GreedyThinnedFallback(graph, options, stats, &state.best_cost,
                          &state.best_edges);
  }
  return AssembleResult(graph, state.best_cost, std::move(state.best_edges));
}

}  // namespace autobi

#include "graph/edmonds.h"

#include <algorithm>

#include "common/check.h"

namespace autobi {

EdmondsWorkspace::Level& EdmondsWorkspace::level(size_t l) {
  if (levels_.size() <= l) levels_.resize(l + 1);
  return levels_[l];
}

bool EdmondsWorkspace::Solve(int num_vertices, const std::vector<Arc>& arcs,
                             int root, const int* arc_edge,
                             const char* edge_mask) {
  // invariant: the solver passes a root it constructed in range.
  AUTOBI_CHECK(root >= 0 && root < num_vertices);
  selected_.clear();
  if (num_vertices == 1) return true;

  // Level 0 optionally reads arcs through the edge mask; contracted levels
  // are already filtered.
  const bool use_mask = arc_edge != nullptr && edge_mask != nullptr;
  auto level0_skips = [&](size_t i) {
    return use_mask && arc_edge[i] >= 0 && edge_mask[arc_edge[i]] == 0;
  };

  level(0).n = num_vertices;
  level(0).root = root;

  // --- Descend: per level, pick cheapest in-arcs, detect cycles, contract.
  size_t depth = 0;
  for (;;) {
    Level& L = levels_[depth];
    const std::vector<Arc>& larcs = depth == 0 ? arcs : L.arcs;
    const bool masked_level = depth == 0 && use_mask;
    const int n = L.n;
    const int lroot = L.root;

    L.best.assign(size_t(n), -1);
    for (size_t i = 0; i < larcs.size(); ++i) {
      if (masked_level && level0_skips(i)) continue;
      const Arc& a = larcs[i];
      if (a.src == a.dst || a.dst == lroot) continue;
      int v = a.dst;
      if (L.best[v] < 0 || a.weight < larcs[size_t(L.best[v])].weight) {
        L.best[v] = static_cast<int>(i);
      }
    }
    for (int v = 0; v < n; ++v) {
      if (v != lroot && L.best[v] < 0) return false;  // Unreachable.
    }

    // Cycles of the functional graph v -> src(best[v]).
    // color: 0 = unvisited, 1 = on current path, 2 = finished.
    L.color.assign(size_t(n), 0);
    L.cycle_id.assign(size_t(n), -1);
    L.num_cycles = 0;
    for (int start = 0; start < n; ++start) {
      if (L.color[start] != 0) continue;
      int v = start;
      path_.clear();
      while (v != lroot && L.color[v] == 0) {
        L.color[v] = 1;
        path_.push_back(v);
        v = larcs[size_t(L.best[v])].src;
      }
      if (v != lroot && L.color[v] == 1) {
        int c = L.num_cycles++;
        size_t pos = 0;
        while (path_[pos] != v) ++pos;
        for (size_t k = pos; k < path_.size(); ++k) L.cycle_id[path_[k]] = c;
      }
      for (int u : path_) L.color[u] = 2;
    }
    if (L.num_cycles == 0) break;

    // Contract each cycle to a super-vertex; cycle c becomes component c.
    L.comp.assign(size_t(n), -1);
    int next = L.num_cycles;
    for (int v = 0; v < n; ++v) {
      L.comp[v] = L.cycle_id[v] >= 0 ? L.cycle_id[v] : next++;
    }

    level(depth + 1);  // Ensure existence before taking references.
    Level& parent = levels_[depth];
    Level& sub = levels_[depth + 1];
    const std::vector<Arc>& parcs = depth == 0 ? arcs : parent.arcs;
    sub.n = next;
    sub.root = parent.comp[lroot];
    sub.arcs.clear();
    sub.parent_arc.clear();
    for (size_t i = 0; i < parcs.size(); ++i) {
      if (masked_level && level0_skips(i)) continue;
      const Arc& a = parcs[i];
      if (a.src == a.dst || a.dst == lroot) continue;
      int nu = parent.comp[a.src];
      int nv = parent.comp[a.dst];
      if (nu == nv) continue;  // Internal to a contracted component.
      double w = a.weight;
      if (parent.cycle_id[a.dst] >= 0) {
        // Entering a cycle: pay the difference against the cycle's own
        // in-arc at the entry vertex (the cycle arc it would displace).
        w -= parcs[size_t(parent.best[a.dst])].weight;
      }
      sub.arcs.push_back(Arc{nu, nv, w});
      sub.parent_arc.push_back(static_cast<int>(i));
    }
    ++depth;
  }

  // --- Base: the acyclic level's best in-arcs are its solution.
  {
    const Level& base = levels_[depth];
    sel_a_.clear();
    for (int v = 0; v < base.n; ++v) {
      if (v != base.root) sel_a_.push_back(base.best[v]);
    }
  }

  // --- Unwind: map each level's selection through parent_arc; every cycle
  // keeps its internal best-arcs except the one displaced at the entry.
  std::vector<int>* cur = &sel_a_;
  std::vector<int>* prev = &sel_b_;
  for (size_t j = depth; j >= 1; --j) {
    Level& sub = levels_[j];
    Level& parent = levels_[j - 1];
    const std::vector<Arc>& parcs = (j - 1 == 0) ? arcs : parent.arcs;
    prev->clear();
    parent.is_entry.assign(size_t(parent.n), 0);
    for (int si : *cur) {
      int ai = sub.parent_arc[size_t(si)];
      prev->push_back(ai);
      parent.is_entry[parcs[size_t(ai)].dst] = 1;
    }
    for (int v = 0; v < parent.n; ++v) {
      if (v == parent.root) continue;
      if (parent.cycle_id[v] >= 0 && !parent.is_entry[v]) {
        prev->push_back(parent.best[v]);
      }
    }
    std::swap(cur, prev);
  }
  selected_.swap(*cur);
  return true;
}

std::optional<std::vector<int>> SolveMinCostArborescence(
    int num_vertices, const std::vector<Arc>& arcs, int root) {
  static thread_local EdmondsWorkspace workspace;
  if (!workspace.Solve(num_vertices, arcs, root)) return std::nullopt;
  return workspace.selected();
}

double ArcSetWeight(const std::vector<Arc>& arcs,
                    const std::vector<int>& selected) {
  double sum = 0.0;
  for (int i : selected) sum += arcs[size_t(i)].weight;
  return sum;
}

}  // namespace autobi

#include "graph/partition.h"

#include <algorithm>

#include "common/parallel.h"

namespace autobi {

namespace {

// Path-halving union-find over vertex ids.
int FindRoot(std::vector<int>& parent, int v) {
  while (parent[size_t(v)] != v) {
    parent[size_t(v)] = parent[size_t(parent[size_t(v)])];
    v = parent[size_t(v)];
  }
  return v;
}

}  // namespace

std::vector<GraphComponent> PartitionJoinGraph(const JoinGraph& graph) {
  const int n = graph.num_vertices();
  std::vector<int> parent(static_cast<size_t>(n));
  for (int v = 0; v < n; ++v) parent[size_t(v)] = v;
  for (const JoinEdge& e : graph.edges()) {
    int a = FindRoot(parent, e.src);
    int b = FindRoot(parent, e.dst);
    // Union by smaller root id: the root IS the component's smallest vertex,
    // which makes the output ordering below trivially deterministic.
    if (a == b) continue;
    if (a < b) {
      parent[size_t(b)] = a;
    } else {
      parent[size_t(a)] = b;
    }
  }
  // Roots in ascending order = components ordered by smallest vertex.
  std::vector<int> comp_of(size_t(n), -1);
  std::vector<GraphComponent> out;
  for (int v = 0; v < n; ++v) {
    int r = FindRoot(parent, v);
    if (comp_of[size_t(r)] < 0) {
      comp_of[size_t(r)] = int(out.size());
      out.emplace_back();
    }
    out[size_t(comp_of[size_t(r)])].vertices.push_back(v);
  }
  for (const JoinEdge& e : graph.edges()) {
    out[size_t(comp_of[size_t(FindRoot(parent, e.src))])].edge_ids.push_back(
        e.id);
  }
  return out;
}

JoinGraph BuildComponentGraph(const JoinGraph& graph,
                              const GraphComponent& comp) {
  JoinGraph local(int(comp.vertices.size()));
  auto local_id = [&](int v) {
    return int(std::lower_bound(comp.vertices.begin(), comp.vertices.end(), v) -
               comp.vertices.begin());
  };
  for (int id : comp.edge_ids) {
    const JoinEdge& e = graph.edge(id);
    local.AddEdge(local_id(e.src), local_id(e.dst), e.src_columns,
                  e.dst_columns, e.probability, e.one_to_one, e.pair_id);
  }
  return local;
}

std::vector<ComponentSolve> SolveKmcaCcPerComponent(
    const JoinGraph& graph,
    const std::vector<const GraphComponent*>& components,
    const KmcaCcOptions& options, int threads,
    const std::function<bool()>& stop) {
  KmcaCcOptions solver = options;
  solver.threads = components.size() == 1 ? threads : 1;
  return ParallelMap(
      components.size(),
      [&](size_t i) {
        ComponentSolve s;
        if (stop && stop()) {
          s.skipped = true;
          return s;
        }
        const GraphComponent& comp = *components[i];
        KmcaResult local =
            SolveKmcaCc(BuildComponentGraph(graph, comp), solver, &s.stats);
        // The local ids are ascending and the remap is monotone, so the
        // global ids stay ascending.
        for (int id : local.edge_ids) {
          s.edge_ids.push_back(comp.edge_ids[size_t(id)]);
        }
        s.cost = local.cost;
        return s;
      },
      threads);
}

}  // namespace autobi

#include "fuzz/metamorphic.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <vector>

#include "common/strings.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "graph/partition.h"

namespace autobi {

namespace {

// Rebuilds `g` with every edge passed through `map_vertex` and
// `map_probability`, preserving edge order (so conflict-group structure and
// 1:1 pairing carry over).
JoinGraph TransformGraph(const JoinGraph& g, const std::vector<int>& perm,
                         double prob_exponent) {
  JoinGraph out(g.num_vertices());
  for (const JoinEdge& e : g.edges()) {
    out.AddEdge(perm[size_t(e.src)], perm[size_t(e.dst)], e.src_columns,
                e.dst_columns, std::pow(e.probability, prob_exponent),
                e.one_to_one, e.pair_id);
  }
  return out;
}

double RelTolerance(double a, double b) {
  return 1e-6 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

}  // namespace

MetamorphicOutcome CheckJoinGraphMetamorphic(const JoinGraph& g,
                                             double penalty_weight, Rng& rng,
                                             const MetamorphicOptions& opt) {
  MetamorphicOutcome out;
  KmcaCcOptions cc_opt;
  cc_opt.penalty_weight = penalty_weight;
  cc_opt.max_one_mca_calls = opt.max_one_mca_calls;

  auto solve = [&](const JoinGraph& graph, const KmcaCcOptions& o,
                   bool* exhausted) {
    KmcaCcStats stats;
    KmcaResult r = SolveKmcaCc(graph, o, &stats);
    *exhausted = stats.budget_exhausted;
    return r;
  };

  bool exhausted = false;
  KmcaResult base = solve(g, cc_opt, &exhausted);

  // Property 1: structural validity holds even for budget-exhausted solves.
  out.check = ValidateKmcaResult(g, base, penalty_weight,
                                 /*enforce_fk_once=*/true, "kmca_cc");
  if (!out.check.ok) return out;
  if (exhausted) {
    out.skipped = true;
    return out;
  }

  // Property 2: vertex-relabeling invariance of the optimal objective.
  std::vector<int> perm(size_t(g.num_vertices()));
  std::iota(perm.begin(), perm.end(), 0);
  rng.Shuffle(perm);
  JoinGraph relabeled = TransformGraph(g, perm, /*prob_exponent=*/1.0);
  KmcaResult perm_result = solve(relabeled, cc_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (std::fabs(perm_result.cost - base.cost) >
      RelTolerance(perm_result.cost, base.cost)) {
    out.check = CheckFail(
        "relabel_cost_mismatch",
        StrFormat("optimal cost %.17g, after vertex relabeling %.17g",
                  base.cost, perm_result.cost));
    return out;
  }

  // Property 3: uniform weight scaling (P -> P^c, penalty -> c * penalty
  // scales every term of Equation 14 by c).
  double c = rng.NextDouble(0.5, 2.0);
  std::vector<int> identity(size_t(g.num_vertices()));
  std::iota(identity.begin(), identity.end(), 0);
  JoinGraph scaled = TransformGraph(g, identity, c);
  KmcaCcOptions scaled_opt = cc_opt;
  scaled_opt.penalty_weight = c * penalty_weight;
  KmcaResult scaled_result = solve(scaled, scaled_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (std::fabs(scaled_result.cost - c * base.cost) >
      RelTolerance(scaled_result.cost, c * base.cost)) {
    out.check = CheckFail(
        "scaling_cost_mismatch",
        StrFormat("cost %.17g scaled by c=%.6g gives %.17g, solver returned "
                  "%.17g",
                  base.cost, c, c * base.cost, scaled_result.cost));
    return out;
  }

  // Property 4: optimal k is non-increasing in the penalty weight.
  KmcaCcOptions hi_opt = cc_opt;
  hi_opt.penalty_weight = 1.5 * penalty_weight;
  KmcaResult hi = solve(g, hi_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (hi.k > base.k) {
    out.check = CheckFail(
        "penalty_monotonicity_violated",
        StrFormat("k=%d at penalty %.6g but k=%d at penalty %.6g", base.k,
                  penalty_weight, hi.k, hi_opt.penalty_weight));
    return out;
  }
  KmcaCcOptions lo_opt = cc_opt;
  lo_opt.penalty_weight = 0.6 * penalty_weight;
  KmcaResult lo = solve(g, lo_opt, &exhausted);
  if (exhausted) {
    out.skipped = true;
    return out;
  }
  if (lo.k < base.k) {
    out.check = CheckFail(
        "penalty_monotonicity_violated",
        StrFormat("k=%d at penalty %.6g but k=%d at penalty %.6g", base.k,
                  penalty_weight, lo.k, lo_opt.penalty_weight));
    return out;
  }

  // Property 5: the FK-once ablation degenerates to plain k-MCA exactly.
  KmcaCcOptions no_cc = cc_opt;
  no_cc.enforce_fk_once = false;
  KmcaResult ablated = SolveKmcaCc(g, no_cc);
  KmcaResult plain = SolveKmca(g, penalty_weight);
  if (ablated.edge_ids != plain.edge_ids) {
    out.check = CheckFail("fk_once_ablation_mismatch",
                          "SolveKmcaCc(enforce_fk_once=false) differs from "
                          "SolveKmca");
    return out;
  }

  // Property 6: EMS feasibility on the optimal backbone.
  out.check = CheckEmsOnBackbone(g, base.edge_ids);
  if (!out.check.ok) return out;

  // Property 7: solving per component and stitching equals the whole-graph
  // solve.
  out.check = CheckStitchedSolve(g, cc_opt, /*threads=*/1, &exhausted);
  out.skipped = exhausted;
  return out;
}

StitchedSolve SolveKmcaCcStitched(const JoinGraph& graph,
                                  const KmcaCcOptions& options, int threads) {
  std::vector<GraphComponent> components = PartitionJoinGraph(graph);
  std::vector<const GraphComponent*> solvable;
  for (const GraphComponent& c : components) {
    if (!c.edge_ids.empty()) solvable.push_back(&c);
  }
  StitchedSolve out;
  out.components_solved = solvable.size();
  if (!components.empty()) {
    out.cost = double(components.size() - 1) * options.penalty_weight;
  }
  for (const ComponentSolve& s :
       SolveKmcaCcPerComponent(graph, solvable, options, threads)) {
    out.edge_ids.insert(out.edge_ids.end(), s.edge_ids.begin(),
                        s.edge_ids.end());
    out.cost += s.cost;
    out.stats.one_mca_calls += s.stats.one_mca_calls;
    out.stats.nodes += s.stats.nodes;
    out.stats.pruned += s.stats.pruned;
    out.stats.memo_hits += s.stats.memo_hits;
    out.stats.waves += s.stats.waves;
    out.stats.budget_exhausted |= s.stats.budget_exhausted;
  }
  return out;
}

CheckResult CheckStitchedSolve(const JoinGraph& graph,
                               const KmcaCcOptions& options, int threads,
                               bool* exhausted) {
  KmcaCcOptions whole_opt = options;
  whole_opt.threads = threads;
  KmcaCcStats whole_stats;
  KmcaResult whole = SolveKmcaCc(graph, whole_opt, &whole_stats);
  StitchedSolve stitched = SolveKmcaCcStitched(graph, options, threads);
  *exhausted = whole_stats.budget_exhausted || stitched.stats.budget_exhausted;
  if (*exhausted) return CheckResult{};

  if (std::fabs(stitched.cost - whole.cost) >
      RelTolerance(stitched.cost, whole.cost)) {
    return CheckFail("stitched_cost_mismatch",
                     StrFormat("stitched objective %.17g, whole-graph %.17g",
                               stitched.cost, whole.cost));
  }
  KmcaResult as_whole;
  as_whole.edge_ids = stitched.edge_ids;
  std::sort(as_whole.edge_ids.begin(), as_whole.edge_ids.end());
  if (as_whole.edge_ids != whole.edge_ids) {
    // Different edges are only legitimate as another optimum of an exact
    // cost tie: the branch-and-bound returns the smallest edge list among
    // the equal-cost leaves it explored, and the two searches explore
    // different trees. Such a set must be a valid FK-once k-arborescence of
    // the whole graph at the whole-graph optimum.
    as_whole.k = graph.num_vertices() - int(as_whole.edge_ids.size());
    as_whole.cost =
        KArborescenceCost(graph, as_whole.edge_ids, options.penalty_weight);
    as_whole.feasible = true;
    CheckResult valid = ValidateKmcaResult(
        graph, as_whole, options.penalty_weight, options.enforce_fk_once,
        "stitched");
    if (!valid.ok) return valid;
    if (std::fabs(as_whole.cost - whole.cost) >
        1e-9 * std::max(1.0, std::fabs(whole.cost))) {
      return CheckFail(
          "stitched_edges_mismatch",
          StrFormat("%zu solved components: stitched edges cost %.17g on the "
                    "whole graph, whole-graph solve %.17g",
                    stitched.components_solved, as_whole.cost, whole.cost));
    }
  }
  // A connected graph with no edgeless vertex is its own component: the
  // component graph is the graph itself, so the search must be too.
  if (PartitionJoinGraph(graph).size() != 1) return CheckResult{};
  const KmcaCcStats& a = stitched.stats;
  const KmcaCcStats& b = whole_stats;
  if (stitched.edge_ids != whole.edge_ids ||
      a.one_mca_calls != b.one_mca_calls || a.nodes != b.nodes ||
      a.pruned != b.pruned || a.memo_hits != b.memo_hits ||
      a.waves != b.waves) {
    return CheckFail(
        "stitched_stats_mismatch",
        StrFormat("one component: stitched calls/nodes/pruned/memo/waves "
                  "%ld/%ld/%ld/%ld/%ld, whole-graph %ld/%ld/%ld/%ld/%ld",
                  a.one_mca_calls, a.nodes, a.pruned, a.memo_hits, a.waves,
                  b.one_mca_calls, b.nodes, b.pruned, b.memo_hits, b.waves));
  }
  return CheckResult{};
}

}  // namespace autobi

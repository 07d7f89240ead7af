#include "fuzz/differential.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <utility>
#include <vector>

#include "common/strings.h"
#include "graph/ems.h"
#include "graph/kmca.h"
#include "graph/kmca_cc.h"
#include "graph/validate.h"
#include "oracle/brute_force.h"
#include "oracle/solver_oracle.h"

namespace autobi {

namespace {

double CostTolerance(double a, double b) {
  return 1e-7 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

std::vector<std::pair<int, int>> EdgePairs(const JoinGraph& g,
                                           const std::vector<int>& ids) {
  std::vector<std::pair<int, int>> pairs;
  pairs.reserve(ids.size());
  for (int id : ids) pairs.emplace_back(g.edge(id).src, g.edge(id).dst);
  return pairs;
}

std::string IdsToString(const std::vector<int>& ids) {
  std::string s = "{";
  for (int id : ids) s += StrFormat("%d ", id);
  s += "}";
  return s;
}

}  // namespace

CheckResult ValidateKmcaResult(const JoinGraph& g, const KmcaResult& r,
                               double penalty, bool enforce_fk_once,
                               const char* solver) {
  if (!r.feasible) {
    return CheckFail(StrFormat("%s_infeasible", solver),
                     "solver reported infeasible (always feasible: the "
                     "empty edge set is a valid k-arborescence)");
  }
  int k = 0;
  if (!IsKArborescence(g.num_vertices(), EdgePairs(g, r.edge_ids), &k)) {
    return CheckFail(StrFormat("%s_not_k_arborescence", solver),
                     StrFormat("edge set %s violates Definition 3",
                               IdsToString(r.edge_ids).c_str()));
  }
  if (k != r.k) {
    return CheckFail(
        StrFormat("%s_k_mismatch", solver),
        StrFormat("reported k=%d, weak components=%d", r.k, k));
  }
  if (enforce_fk_once && !SatisfiesFkOnce(g, r.edge_ids)) {
    return CheckFail(StrFormat("%s_fk_once_violated", solver),
                     StrFormat("edge set %s violates Equation 16",
                               IdsToString(r.edge_ids).c_str()));
  }
  double cost = KArborescenceCost(g, r.edge_ids, penalty);
  if (std::fabs(cost - r.cost) > CostTolerance(cost, r.cost)) {
    return CheckFail(
        StrFormat("%s_cost_inconsistent", solver),
        StrFormat("reported cost %.17g, recomputed %.17g", r.cost, cost));
  }
  return CheckResult{};
}

CheckResult CheckEmsOnBackbone(const JoinGraph& g,
                               const std::vector<int>& backbone) {
  EmsOptions ems_opt;
  std::vector<int> extra = SolveEmsGreedy(g, backbone, ems_opt);
  std::vector<int> combined = backbone;
  combined.insert(combined.end(), extra.begin(), extra.end());
  if (!SatisfiesFkOnce(g, combined)) {
    return CheckFail("ems_fk_once_violated",
                     StrFormat("backbone+EMS %s violates Equation 18",
                               IdsToString(combined).c_str()));
  }
  if (HasDirectedCycle(g.num_vertices(), EdgePairs(g, combined))) {
    return CheckFail("ems_cycle",
                     StrFormat("backbone+EMS %s violates Equation 19",
                               IdsToString(combined).c_str()));
  }
  std::set<int> pair_ids;
  for (int id : combined) {
    int pid = g.edge(id).pair_id;
    if (pid >= 0 && !pair_ids.insert(pid).second) {
      return CheckFail("ems_both_orientations",
                       StrFormat("backbone+EMS selects both orientations of "
                                 "1:1 pair %d",
                                 pid));
    }
  }
  for (int id : extra) {
    if (g.edge(id).probability < ems_opt.tau) {
      return CheckFail("ems_below_tau",
                       StrFormat("EMS added edge %d with P=%.6g < tau=%.6g",
                                 id, g.edge(id).probability, ems_opt.tau));
    }
  }
  return CheckResult{};
}

CheckResult CheckJoinGraphDifferential(const JoinGraph& g,
                                       double penalty_weight) {
  KmcaCcOptions cc_opt;
  cc_opt.penalty_weight = penalty_weight;

  // --- k-MCA-CC vs exhaustive oracle.
  KmcaResult fast_cc = SolveKmcaCc(g, cc_opt);
  if (CheckResult v = ValidateKmcaResult(g, fast_cc, penalty_weight,
                                         /*enforce_fk_once=*/true, "kmca_cc");
      !v.ok) {
    return v;
  }
  KmcaResult brute_cc = BruteForceKmcaCc(g, penalty_weight);
  if (std::fabs(fast_cc.cost - brute_cc.cost) >
      CostTolerance(fast_cc.cost, brute_cc.cost)) {
    return CheckFail(
        "kmca_cc_cost_mismatch",
        StrFormat("SolveKmcaCc=%.17g %s vs BruteForceKmcaCc=%.17g %s",
                  fast_cc.cost, IdsToString(fast_cc.edge_ids).c_str(),
                  brute_cc.cost, IdsToString(brute_cc.edge_ids).c_str()));
  }

  // --- New wave-parallel k-MCA-CC vs the frozen serial reference. Cost
  // only: both are exact, but equal-cost optima may resolve to different
  // edge sets (the legacy search has no lexicographic incumbent rule).
  KmcaResult legacy_cc = SolveKmcaCcLegacy(g, cc_opt);
  if (std::fabs(fast_cc.cost - legacy_cc.cost) >
      CostTolerance(fast_cc.cost, legacy_cc.cost)) {
    return CheckFail(
        "kmca_cc_legacy_mismatch",
        StrFormat("SolveKmcaCc=%.17g %s vs SolveKmcaCcLegacy=%.17g %s",
                  fast_cc.cost, IdsToString(fast_cc.edge_ids).c_str(),
                  legacy_cc.cost, IdsToString(legacy_cc.edge_ids).c_str()));
  }

  // --- k-MCA vs exhaustive oracle.
  KmcaResult fast_k = SolveKmca(g, penalty_weight);
  if (CheckResult v = ValidateKmcaResult(g, fast_k, penalty_weight,
                                         /*enforce_fk_once=*/false, "kmca");
      !v.ok) {
    return v;
  }
  KmcaResult brute_k = BruteForceKmca(g, penalty_weight);
  if (std::fabs(fast_k.cost - brute_k.cost) >
      CostTolerance(fast_k.cost, brute_k.cost)) {
    return CheckFail(
        "kmca_cost_mismatch",
        StrFormat("SolveKmca=%.17g %s vs BruteForceKmca=%.17g %s",
                  fast_k.cost, IdsToString(fast_k.edge_ids).c_str(),
                  brute_k.cost, IdsToString(brute_k.edge_ids).c_str()));
  }

  // --- Relaxation bound: dropping the constraint can only help.
  if (fast_k.cost > fast_cc.cost + CostTolerance(fast_k.cost, fast_cc.cost)) {
    return CheckFail("relaxation_bound_violated",
                     StrFormat("k-MCA cost %.17g > k-MCA-CC cost %.17g",
                               fast_k.cost, fast_cc.cost));
  }

  // --- enforce_fk_once=false degenerates to plain k-MCA, exactly.
  KmcaCcOptions no_cc = cc_opt;
  no_cc.enforce_fk_once = false;
  KmcaResult ablated = SolveKmcaCc(g, no_cc);
  if (ablated.edge_ids != fast_k.edge_ids) {
    return CheckFail("fk_once_ablation_mismatch",
                     StrFormat("SolveKmcaCc(no fk-once)=%s vs SolveKmca=%s",
                               IdsToString(ablated.edge_ids).c_str(),
                               IdsToString(fast_k.edge_ids).c_str()));
  }

  // --- Determinism: a second solve must be byte-identical.
  KmcaResult again = SolveKmcaCc(g, cc_opt);
  if (again.edge_ids != fast_cc.edge_ids) {
    return CheckFail("kmca_cc_nondeterministic",
                     StrFormat("first solve %s, second solve %s",
                               IdsToString(fast_cc.edge_ids).c_str(),
                               IdsToString(again.edge_ids).c_str()));
  }

  // --- EMS recall edges on top of the backbone.
  return CheckEmsOnBackbone(g, fast_cc.edge_ids);
}

CheckResult CheckArcDifferential(const ArcInstance& instance) {
  auto fast = SolveMinCostArborescence(instance.num_vertices, instance.arcs,
                                       instance.root);
  auto slow = BruteForceMinArborescence(instance.num_vertices, instance.arcs,
                                        instance.root);
  if (fast.has_value() != slow.has_value()) {
    return CheckFail(
        "edmonds_feasibility_mismatch",
        StrFormat("Edmonds %s, brute force %s on %s",
                  fast.has_value() ? "feasible" : "infeasible",
                  slow.has_value() ? "feasible" : "infeasible",
                  FormatArcInstance(instance).c_str()));
  }
  if (!fast.has_value()) return CheckResult{};

  std::vector<std::pair<int, int>> pairs;
  for (int i : *fast) {
    pairs.emplace_back(instance.arcs[size_t(i)].src,
                       instance.arcs[size_t(i)].dst);
  }
  if (!IsSpanningArborescence(instance.num_vertices, pairs, instance.root)) {
    return CheckFail("edmonds_not_spanning",
                     StrFormat("selection is not a spanning arborescence on "
                               "%s",
                               FormatArcInstance(instance).c_str()));
  }
  double fast_w = ArcSetWeight(instance.arcs, *fast);
  double slow_w = ArcSetWeight(instance.arcs, *slow);
  if (std::fabs(fast_w - slow_w) > CostTolerance(fast_w, slow_w)) {
    return CheckFail("edmonds_weight_mismatch",
                     StrFormat("Edmonds=%.17g vs brute force=%.17g on %s",
                               fast_w, slow_w,
                               FormatArcInstance(instance).c_str()));
  }
  auto again = SolveMinCostArborescence(instance.num_vertices, instance.arcs,
                                        instance.root);
  if (!again.has_value() || *again != *fast) {
    return CheckFail("edmonds_nondeterministic",
                     StrFormat("repeated solves differ on %s",
                               FormatArcInstance(instance).c_str()));
  }

  // --- Iterative workspace vs the frozen recursive reference: the
  // contraction orders are mirrored exactly, so the selected arc indices
  // (not just the weight) must match arc-for-arc.
  auto legacy = SolveMinCostArborescenceLegacy(instance.num_vertices,
                                               instance.arcs, instance.root);
  if (!legacy.has_value() || *legacy != *fast) {
    return CheckFail("edmonds_legacy_mismatch",
                     StrFormat("iterative workspace and recursive reference "
                               "select different arcs on %s",
                               FormatArcInstance(instance).c_str()));
  }
  return CheckResult{};
}

}  // namespace autobi

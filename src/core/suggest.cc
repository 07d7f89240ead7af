#include "core/suggest.h"

#include <algorithm>
#include <map>
#include <utility>

#include "common/check.h"

namespace autobi {

std::vector<std::vector<JoinSuggestion>> SuggestJoins(
    const std::vector<Table>& tables, const LocalModel& model, size_t top_k,
    const AutoBiOptions& options) {
  AutoBi auto_bi(&model, options);
  AutoBiResult result = auto_bi.Predict(tables);

  // Group scored edges by their source column set; 1:1 pairs contribute one
  // suggestion per orientation's source (each side may "own" the pick).
  std::map<std::pair<int, std::vector<int>>, std::vector<JoinSuggestion>>
      groups;
  for (const JoinEdge& e : result.graph.edges()) {
    JoinSuggestion s;
    s.join.from = ColumnRef{e.src, e.src_columns};
    s.join.to = ColumnRef{e.dst, e.dst_columns};
    s.join.kind = e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    s.join = s.join.Normalized();
    s.probability = e.probability;
    s.chosen_by_auto_bi = result.model.Contains(s.join);
    groups[{e.src, e.src_columns}].push_back(std::move(s));
  }

  std::vector<std::vector<JoinSuggestion>> out;
  for (auto& [key, suggestions] : groups) {
    (void)key;
    std::sort(suggestions.begin(), suggestions.end(),
              [](const JoinSuggestion& a, const JoinSuggestion& b) {
                if (a.probability != b.probability) {
                  return a.probability > b.probability;
                }
                return a.chosen_by_auto_bi && !b.chosen_by_auto_bi;
              });
    if (suggestions.size() > top_k) suggestions.resize(top_k);
    out.push_back(std::move(suggestions));
  }
  std::sort(out.begin(), out.end(),
            [](const std::vector<JoinSuggestion>& a,
               const std::vector<JoinSuggestion>& b) {
              return a.front().probability > b.front().probability;
            });
  return out;
}

std::vector<Join> PredictJoinsForNewTable(const std::vector<Table>& tables,
                                          const BiModel& confirmed,
                                          const LocalModel& model,
                                          const AutoBiOptions& options) {
  // invariant: documented API precondition (the new table is tables.back()).
  AUTOBI_CHECK(!tables.empty());
  int new_table = int(tables.size()) - 1;

  CandidateSet candidates = GenerateCandidates(tables, options.candidates);
  bool schema_only = options.mode == AutoBiMode::kSchemaOnly;
  JoinGraph graph =
      BuildJoinGraph(tables, candidates, model, schema_only, nullptr);

  // Force the confirmed joins: give their edges probability ~1 (weight ~0)
  // so the global solve keeps them — and, crucially, lets them occupy
  // in-degrees and FK-once slots the new table's candidates must respect.
  constexpr double kConfirmedProbability = 1.0 - 1e-6;
  JoinGraph forced(graph.num_vertices());
  auto matches_confirmed = [&](const JoinEdge& e) {
    Join as_join;
    as_join.from = ColumnRef{e.src, e.src_columns};
    as_join.to = ColumnRef{e.dst, e.dst_columns};
    as_join.kind = e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    return confirmed.Contains(as_join.Normalized());
  };
  std::vector<char> covered(confirmed.joins.size(), 0);
  for (const JoinEdge& e : graph.edges()) {
    bool conf = matches_confirmed(e);
    if (conf) {
      for (size_t i = 0; i < confirmed.joins.size(); ++i) {
        Join as_join{ColumnRef{e.src, e.src_columns},
                     ColumnRef{e.dst, e.dst_columns},
                     e.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne};
        if (confirmed.joins[i] == as_join) covered[i] = 1;
      }
    }
    forced.AddEdge(e.src, e.dst, e.src_columns, e.dst_columns,
                   conf ? kConfirmedProbability : e.probability,
                   e.one_to_one, e.pair_id);
  }
  // Confirmed joins with no surviving candidate edge (e.g. user-specified
  // joins the IND pass would not re-derive) are injected directly.
  for (size_t i = 0; i < confirmed.joins.size(); ++i) {
    if (covered[i]) continue;
    const Join& j = confirmed.joins[i];
    forced.AddEdge(j.from.table, j.to.table, j.from.columns, j.to.columns,
                   kConfirmedProbability,
                   j.kind == JoinKind::kOneToOne, -1);
  }
  AutoBiResult result;
  result.graph = std::move(forced);
  RunGlobalPredict(options, nullptr, &result);

  std::vector<Join> out;
  for (const Join& j : result.model.joins) {
    if (j.from.table == new_table || j.to.table == new_table) {
      out.push_back(j);
    }
  }
  return out;
}

}  // namespace autobi

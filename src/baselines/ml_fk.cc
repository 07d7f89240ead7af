#include "baselines/ml_fk.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>

#include "common/fs.h"
#include "common/strings.h"
#include "common/timer.h"
#include "core/candidates.h"
#include "core/trainer.h"
#include "text/similarity.h"
#include "text/tokenize.h"

namespace autobi {

namespace {

std::string RefName(const FeatureContext& ctx, const ColumnRef& ref) {
  std::string out;
  for (size_t i = 0; i < ref.columns.size(); ++i) {
    if (i > 0) out += " ";
    out += (*ctx.tables)[size_t(ref.table)]
               .column(size_t(ref.columns[i]))
               .name();
  }
  return out;
}

}  // namespace

std::vector<std::string> MlFkModel::FeatureNames() {
  return {"coverage",          "name_similarity", "dependent_distinct",
          "referenced_is_first", "row_ratio",     "key_suffix",
          "value_length_diff"};
}

std::vector<double> MlFkModel::Featurize(const FeatureContext& ctx,
                                         const JoinCandidate& cand) {
  const TableProfile& ps = (*ctx.profiles)[size_t(cand.src.table)];
  const TableProfile& pd = (*ctx.profiles)[size_t(cand.dst.table)];
  const ColumnProfile& src = ps.columns[size_t(cand.src.columns[0])];
  const ColumnProfile& dst = pd.columns[size_t(cand.dst.columns[0])];
  std::string src_name = NormalizeIdentifier(RefName(ctx, cand.src));
  std::string dst_name = NormalizeIdentifier(RefName(ctx, cand.dst));
  std::string lower = ToLower(src_name);
  double key_suffix = (EndsWith(lower, "id") || EndsWith(lower, "key") ||
                       EndsWith(lower, "code") || EndsWith(lower, "no"))
                          ? 1.0
                          : 0.0;
  double rows_src = double(ps.row_count) + 1.0;
  double rows_dst = double(pd.row_count) + 1.0;
  return {
      cand.left_containment,
      EditSimilarity(src_name, dst_name),
      src.distinct_ratio,
      cand.dst.columns[0] == 0 ? 1.0 : 0.0,
      std::min(10.0, rows_src / rows_dst),
      key_suffix,
      std::min(20.0, std::fabs(src.avg_value_length - dst.avg_value_length)),
  };
}

void MlFkModel::Train(const std::vector<BiCase>& corpus) {
  Dataset data(FeatureNames());
  for (const BiCase& bi_case : corpus) {
    CandidateSet cands = GenerateCandidates(bi_case.tables);
    std::vector<int> labels =
        LabelCandidates(bi_case, cands.candidates, /*label_transitivity=*/false);
    FeatureContext ctx{&bi_case.tables, &cands.profiles, nullptr};
    for (size_t i = 0; i < cands.candidates.size(); ++i) {
      data.Add(Featurize(ctx, cands.candidates[i]), labels[i]);
    }
  }
  if (data.num_rows() >= 10 && data.num_positives() > 0 &&
      data.num_positives() < data.num_rows()) {
    lr_.Fit(data);
  }
}

double MlFkModel::Score(const FeatureContext& ctx,
                        const JoinCandidate& cand) const {
  if (!lr_.trained()) return 0.0;
  return lr_.PredictProba(Featurize(ctx, cand));
}

void MlFkModel::Save(std::ostream& os) const {
  os << "mlfk 1\n";
  lr_.Save(os);
}

bool MlFkModel::Load(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "mlfk" || version != 1) return false;
  return lr_.Load(is);
}

bool MlFkModel::SaveToFile(const std::string& path) const {
  std::ostringstream os;
  Save(os);
  return WriteFileAtomic(path, os.str()).ok();
}

bool MlFkModel::LoadFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  return Load(is);
}

BiModel MlFkRostin::Predict(const std::vector<Table>& tables,
                            AutoBiTiming* timing) const {
  CandidateSet cands = GenerateCandidates(tables);
  if (timing != nullptr) {
    timing->ucc = cands.ucc_seconds;
    timing->ind = cands.ind_seconds;
  }
  Timer local_timer;
  FeatureContext ctx{&tables, &cands.profiles, nullptr};
  std::vector<double> scores;
  scores.reserve(cands.candidates.size());
  for (const JoinCandidate& cand : cands.candidates) {
    scores.push_back(model_->Score(ctx, cand));
  }
  if (timing != nullptr) timing->local_inference = local_timer.Seconds();

  Timer global_timer;
  // Per-FK argmax at threshold 0.5 (local decision only).
  std::map<std::pair<int, std::vector<int>>, size_t> best;
  for (size_t i = 0; i < cands.candidates.size(); ++i) {
    if (scores[i] < 0.5) continue;
    auto key = std::make_pair(cands.candidates[i].src.table,
                              cands.candidates[i].src.columns);
    auto it = best.find(key);
    if (it == best.end() || scores[i] > scores[it->second]) best[key] = i;
  }
  BiModel model;
  for (const auto& [key, idx] : best) {
    (void)key;
    const JoinCandidate& c = cands.candidates[idx];
    Join join;
    join.from = c.src;
    join.to = c.dst;
    join.kind = c.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    model.joins.push_back(join.Normalized());
  }
  if (timing != nullptr) timing->global_predict = global_timer.Seconds();
  return model;
}

}  // namespace autobi

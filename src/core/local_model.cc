#include "core/local_model.h"

#include <algorithm>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <utility>

#include "common/check.h"
#include "common/fs.h"

namespace autobi {

double LocalModel::Calibrate(int index, double raw) const {
  switch (calibration_) {
    case CalibrationMethod::kPlatt:
      return platt_[index].fitted() ? platt_[index].Calibrate(raw) : raw;
    case CalibrationMethod::kIsotonic:
      return isotonic_[index].fitted() ? isotonic_[index].Calibrate(raw)
                                       : raw;
    case CalibrationMethod::kNone:
      return raw;
  }
  return raw;
}

double LocalModel::Score(const FeatureContext& ctx, const JoinCandidate& cand,
                         bool schema_only) const {
  // With the N:1/1:1 split disabled (the "no-N-1/1-1-separation" ablation),
  // every candidate goes through the N:1 classifier. Untrained variants
  // (e.g. a corpus without 1:1 joins) fall back to the N:1 classifier, and
  // ultimately to an uninformed 0.5.
  bool use_one = split_one_to_one_ && cand.one_to_one;
  if (use_one) {
    const RandomForest& forest = schema_only ? one_schema_ : one_full_;
    if (forest.trained()) {
      std::vector<double> f =
          featurizer_.FeaturizeOneToOne(ctx, cand, schema_only);
      return Calibrate(schema_only ? kOneSchema : kOneFull,
                       forest.PredictProba(f));
    }
  }
  const RandomForest& forest = schema_only ? n1_schema_ : n1_full_;
  if (!forest.trained()) return 0.5;
  std::vector<double> f = featurizer_.FeaturizeN1(ctx, cand, schema_only);
  return Calibrate(schema_only ? kN1Schema : kN1Full,
                   forest.PredictProba(f));
}

namespace {

std::vector<std::pair<std::string, double>> RankedImportance(
    const RandomForest& forest, const std::vector<std::string>& names) {
  std::vector<double> imp = forest.FeatureImportance(names.size());
  std::vector<std::pair<std::string, double>> out;
  out.reserve(names.size());
  for (size_t i = 0; i < names.size(); ++i) {
    out.emplace_back(names[i], imp[i]);
  }
  std::sort(out.begin(), out.end(),
            [](const auto& a, const auto& b) { return a.second > b.second; });
  return out;
}

}  // namespace

std::vector<std::pair<std::string, double>> LocalModel::N1FeatureImportance()
    const {
  return RankedImportance(n1_full_, Featurizer::N1FeatureNames(false));
}

std::vector<std::pair<std::string, double>>
LocalModel::OneToOneFeatureImportance() const {
  return RankedImportance(one_full_, Featurizer::OneToOneFeatureNames(false));
}

void LocalModel::Save(std::ostream& os) const {
  os << "localmodel 1\n";
  os << (split_one_to_one_ ? 1 : 0) << " " << static_cast<int>(calibration_)
     << "\n";
  n1_full_.Save(os);
  n1_schema_.Save(os);
  one_full_.Save(os);
  one_schema_.Save(os);
  for (const auto& c : platt_) c.Save(os);
  for (const auto& c : isotonic_) c.Save(os);
  frequency_.Save(os);
}

bool LocalModel::Load(std::istream& is) {
  std::string tag;
  int version = 0;
  if (!(is >> tag >> version) || tag != "localmodel" || version != 1) {
    return false;
  }
  int split = 1, cal = 0;
  if (!(is >> split >> cal)) return false;
  if (cal < int(CalibrationMethod::kPlatt) ||
      cal > int(CalibrationMethod::kNone)) {
    return false;
  }
  split_one_to_one_ = (split != 0);
  calibration_ = static_cast<CalibrationMethod>(cal);
  // Each classifier may be untrained (see FitClassifier), and its trees may
  // read only features of the vector Score hands it.
  const std::pair<RandomForest*, size_t> forests[] = {
      {&n1_full_, Featurizer::N1FeatureNames(false).size()},
      {&n1_schema_, Featurizer::N1FeatureNames(true).size()},
      {&one_full_, Featurizer::OneToOneFeatureNames(false).size()},
      {&one_schema_, Featurizer::OneToOneFeatureNames(true).size()},
  };
  for (const auto& [forest, dim] : forests) {
    if (!forest->Load(is) || forest->max_feature() >= int(dim)) return false;
  }
  for (auto& c : platt_) {
    if (!c.Load(is)) return false;
  }
  for (auto& c : isotonic_) {
    if (!c.Load(is)) return false;
  }
  return frequency_.Load(is);
}

bool LocalModel::SaveToFile(const std::string& path) const {
  std::ostringstream os;
  os.precision(17);
  Save(os);
  return WriteFileAtomic(path, os.str()).ok();
}

bool LocalModel::LoadFromFile(const std::string& path) {
  std::ifstream is(path);
  if (!is) return false;
  return Load(is);
}

}  // namespace autobi

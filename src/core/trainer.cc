#include "core/trainer.h"

#include <map>
#include <numeric>

#include "common/parallel.h"
#include "common/rng.h"
#include "fuzz/faultpoints.h"
#include "ml/metrics.h"

namespace autobi {

namespace {

// Union-find over ColumnRefs for label transitivity.
class RefUnion {
 public:
  int Intern(const ColumnRef& ref) {
    auto it = ids_.find(ref);
    if (it != ids_.end()) return it->second;
    int id = static_cast<int>(parent_.size());
    ids_.emplace(ref, id);
    parent_.push_back(id);
    return id;
  }
  int Lookup(const ColumnRef& ref) const {
    auto it = ids_.find(ref);
    return it == ids_.end() ? -1 : it->second;
  }
  int Find(int x) {
    while (parent_[size_t(x)] != x) {
      parent_[size_t(x)] = parent_[size_t(parent_[size_t(x)])];
      x = parent_[size_t(x)];
    }
    return x;
  }
  void Union(int a, int b) { parent_[size_t(Find(a))] = Find(b); }

 private:
  std::map<ColumnRef, int> ids_;
  std::vector<int> parent_;
};

}  // namespace

std::vector<int> LabelCandidates(const BiCase& bi_case,
                                 const std::vector<JoinCandidate>& candidates,
                                 bool label_transitivity) {
  // Transitive closure of join-connected column refs.
  RefUnion uf;
  for (const Join& j : bi_case.ground_truth.joins) {
    uf.Union(uf.Intern(j.from), uf.Intern(j.to));
  }

  std::vector<int> labels(candidates.size(), 0);
  for (size_t i = 0; i < candidates.size(); ++i) {
    const JoinCandidate& c = candidates[i];
    Join as_join;
    as_join.from = c.src;
    as_join.to = c.dst;
    as_join.kind = c.one_to_one ? JoinKind::kOneToOne : JoinKind::kNToOne;
    if (bi_case.ground_truth.Contains(as_join)) {
      labels[i] = 1;
      continue;
    }
    // A candidate whose kind disagrees with the ground truth still counts as
    // a positive join pair for classifier training (the joined columns are
    // the same).
    as_join.kind = c.one_to_one ? JoinKind::kNToOne : JoinKind::kOneToOne;
    if (bi_case.ground_truth.Contains(as_join) ||
        (as_join.kind == JoinKind::kNToOne &&
         bi_case.ground_truth.Contains(
             Join{as_join.to, as_join.from, JoinKind::kNToOne}))) {
      labels[i] = 1;
      continue;
    }
    if (label_transitivity) {
      int a = uf.Lookup(c.src);
      int b = uf.Lookup(c.dst);
      if (a >= 0 && b >= 0 && uf.Find(a) == uf.Find(b)) labels[i] = 1;
    }
  }
  return labels;
}

namespace {

struct FitResult {
  double auc = 0.5;
  double ece = 0.0;
};

// Fits a forest + calibrator pair on `data`; reports holdout quality.
FitResult FitClassifier(const Dataset& data, const TrainerOptions& options,
                        Rng& rng, RandomForest* forest,
                        PlattCalibrator* platt, IsotonicCalibrator* isotonic,
                        CalibrationMethod method) {
  FitResult result;
  if (data.num_rows() < 10 || data.num_positives() == 0 ||
      data.num_positives() == data.num_rows()) {
    // Degenerate dataset (e.g. a corpus without 1:1 joins): leave the
    // classifier untrained; LocalModel::Score falls back gracefully.
    return result;
  }
  Dataset train, holdout;
  data.Split(1.0 - options.calibration_holdout, rng, &train, &holdout);
  if (train.num_rows() == 0 || holdout.num_rows() == 0 ||
      train.num_positives() == 0 ||
      train.num_positives() == train.num_rows()) {
    train = data;
    holdout = data;  // Tiny data: calibrate in-sample rather than not at all.
  }
  forest->Fit(train, options.forest, rng);

  std::vector<double> raw(holdout.num_rows());
  std::vector<int> labels(holdout.num_rows());
  for (size_t i = 0; i < holdout.num_rows(); ++i) {
    raw[i] = forest->PredictProba(holdout.Row(i));
    labels[i] = holdout.Label(i);
  }
  platt->Fit(raw, labels);
  isotonic->Fit(raw, labels);

  std::vector<double> calibrated(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    switch (method) {
      case CalibrationMethod::kPlatt:
        calibrated[i] = platt->Calibrate(raw[i]);
        break;
      case CalibrationMethod::kIsotonic:
        calibrated[i] = isotonic->Calibrate(raw[i]);
        break;
      case CalibrationMethod::kNone:
        calibrated[i] = raw[i];
        break;
    }
  }
  result.auc = RocAuc(calibrated, labels);
  result.ece = ExpectedCalibrationError(calibrated, labels);
  return result;
}

}  // namespace

LocalModel TrainLocalModel(const std::vector<BiCase>& corpus,
                           const TrainerOptions& options,
                           TrainerReport* report) {
  LocalModel model;
  model.set_split_one_to_one(options.split_one_to_one);
  model.set_calibration(options.calibration);
  Featurizer featurizer;

  // Pass 1: corpus name frequencies (needed before featurization so the
  // Col_frequency feature is populated).
  for (const BiCase& bi_case : corpus) {
    for (const Table& t : bi_case.tables) {
      for (const Column& c : t.columns()) {
        model.frequency().Observe(c.name());
      }
    }
  }

  // Pass 2: candidates -> labels -> features, one case per slot, in
  // parallel over cases with the most cells first; the rows then join the
  // datasets serially in case order, so they are the same at any thread
  // count. GenerateCandidates queries the candidates.exhausted fault point,
  // and fault decisions follow the order of queries, so under an armed
  // spec the cases run serially in case order.
  struct CaseRows {
    // Per candidate, in candidate order.
    std::vector<std::vector<double>> full;
    std::vector<std::vector<double>> schema;
    std::vector<int> labels;
    std::vector<char> one_to_one;
  };
  std::vector<CaseRows> rows(corpus.size());
  auto featurize_case = [&](size_t index) {
    const BiCase& bi_case = corpus[index];
    CandidateSet cands = GenerateCandidates(bi_case.tables,
                                            options.candidates);
    CaseRows& out = rows[index];
    out.labels =
        LabelCandidates(bi_case, cands.candidates, options.label_transitivity);
    FeatureContext ctx;
    ctx.tables = &bi_case.tables;
    ctx.profiles = &cands.profiles;
    ctx.frequency = &model.frequency();
    for (const JoinCandidate& c : cands.candidates) {
      const bool one = options.split_one_to_one && c.one_to_one;
      out.one_to_one.push_back(one);
      if (one) {
        out.full.push_back(featurizer.FeaturizeOneToOne(ctx, c, false));
        out.schema.push_back(featurizer.FeaturizeOneToOne(ctx, c, true));
      } else {
        out.full.push_back(featurizer.FeaturizeN1(ctx, c, false));
        out.schema.push_back(featurizer.FeaturizeN1(ctx, c, true));
      }
    }
  };
  if (FaultPoints::Global().enabled()) {
    for (size_t i = 0; i < corpus.size(); ++i) featurize_case(i);
  } else {
    const std::vector<size_t> order =
        LargestFirst(corpus.size(), [&](size_t i) {
          size_t cells = 0;
          for (const Table& t : corpus[i].tables) {
            cells += t.num_rows() * t.num_columns();
          }
          return cells;
        });
    ParallelFor(
        corpus.size(), [&](size_t k) { featurize_case(order[k]); },
        options.candidates.threads);
  }

  Dataset n1_full(Featurizer::N1FeatureNames(false));
  Dataset n1_schema(Featurizer::N1FeatureNames(true));
  Dataset one_full(Featurizer::OneToOneFeatureNames(false));
  Dataset one_schema(Featurizer::OneToOneFeatureNames(true));
  for (CaseRows& r : rows) {
    for (size_t i = 0; i < r.labels.size(); ++i) {
      (r.one_to_one[i] ? one_full : n1_full).Add(r.full[i], r.labels[i]);
      (r.one_to_one[i] ? one_schema : n1_schema).Add(r.schema[i], r.labels[i]);
    }
    r = CaseRows();  // Bounds the peak to the datasets plus unmerged cases.
  }

  Rng rng(options.seed);
  FitResult n1 = FitClassifier(
      n1_full, options, rng, &model.n1_full(),
      &model.platt(LocalModel::kN1Full), &model.isotonic(LocalModel::kN1Full),
      options.calibration);
  FitClassifier(n1_schema, options, rng, &model.n1_schema(),
                &model.platt(LocalModel::kN1Schema),
                &model.isotonic(LocalModel::kN1Schema), options.calibration);
  FitResult one = FitClassifier(
      one_full, options, rng, &model.one_full(),
      &model.platt(LocalModel::kOneFull),
      &model.isotonic(LocalModel::kOneFull), options.calibration);
  FitClassifier(one_schema, options, rng, &model.one_schema(),
                &model.platt(LocalModel::kOneSchema),
                &model.isotonic(LocalModel::kOneSchema), options.calibration);

  if (report != nullptr) {
    report->num_cases = corpus.size();
    report->n1_examples = n1_full.num_rows();
    report->n1_positives = n1_full.num_positives();
    report->one_examples = one_full.num_rows();
    report->one_positives = one_full.num_positives();
    report->n1_auc = n1.auc;
    report->one_auc = one.auc;
    report->n1_calibration_error = n1.ece;
    report->one_calibration_error = one.ece;
  }
  return model;
}

}  // namespace autobi

#ifndef AUTOBI_ML_RANDOM_FOREST_H_
#define AUTOBI_ML_RANDOM_FOREST_H_

#include <iosfwd>
#include <vector>

#include "ml/decision_tree.h"

namespace autobi {

struct ForestOptions {
  int num_trees = 48;
  TreeOptions tree;
  // Bootstrap sample fraction per tree.
  double sample_fraction = 1.0;
  // If true, tree.features_per_split defaults to sqrt(num_features).
  bool sqrt_features = true;
  // Worker threads for per-tree fitting (ResolveThreads semantics: 0 = use
  // AUTOBI_THREADS / hardware, 1 = serial). Each tree draws from its own
  // deterministically forked RNG stream, so the fitted forest is identical
  // at any thread count.
  int threads = 0;
};

// Bagged random forest over CART trees — the feature-based local join
// classifier of Section 4.2. PredictProba averages the trees' leaf
// fractions; the result is a raw score that the calibrators turn into a true
// probability.
class RandomForest {
 public:
  void Fit(const Dataset& data, const ForestOptions& options, Rng& rng);

  double PredictProba(const std::vector<double>& features) const;

  bool trained() const { return !trees_.empty(); }
  size_t num_trees() const { return trees_.size(); }

  // Per-feature importance (normalized to sum to 1), for the Appendix-B
  // feature-importance report.
  std::vector<double> FeatureImportance(size_t num_features) const;

  // Largest feature id any tree's split reads (-1 when none).
  int max_feature() const;

  // Text (de)serialization. Load returns false on a malformed tree (see
  // DecisionTree::Load). An empty forest loads as untrained: LocalModel
  // saves a classifier the trainer left unfitted that way.
  void Save(std::ostream& os) const;
  bool Load(std::istream& is);

 private:
  std::vector<DecisionTree> trees_;
};

}  // namespace autobi

#endif  // AUTOBI_ML_RANDOM_FOREST_H_

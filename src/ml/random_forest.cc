#include "ml/random_forest.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/parallel.h"

namespace autobi {

void RandomForest::Fit(const Dataset& data, const ForestOptions& options,
                       Rng& rng) {
  AUTOBI_CHECK(data.num_rows() > 0);  // invariant: trainer filters empty data.
  trees_.clear();
  TreeOptions topt = options.tree;
  if (options.sqrt_features && topt.features_per_split == 0) {
    topt.features_per_split = static_cast<size_t>(
        std::ceil(std::sqrt(static_cast<double>(data.num_features()))));
  }
  size_t sample_size = static_cast<size_t>(
      options.sample_fraction * static_cast<double>(data.num_rows()));
  if (sample_size == 0) sample_size = data.num_rows();
  trees_.resize(static_cast<size_t>(options.num_trees));
  // Fork one RNG stream per tree *before* the parallel region, in tree
  // order: every tree's bootstrap sample and split randomness depend only on
  // its own stream, so the fitted forest is bit-identical at any thread
  // count (the concurrency contract in ARCHITECTURE.md).
  std::vector<Rng> tree_rngs;
  tree_rngs.reserve(trees_.size());
  for (size_t t = 0; t < trees_.size(); ++t) tree_rngs.push_back(rng.Fork());
  ParallelFor(
      trees_.size(),
      [&](size_t t) {
        std::vector<size_t> rows(sample_size);
        for (size_t& r : rows) r = tree_rngs[t].NextBelow(data.num_rows());
        trees_[t].Fit(data, rows, topt, tree_rngs[t]);
      },
      options.threads);
}

double RandomForest::PredictProba(const std::vector<double>& features) const {
  AUTOBI_CHECK(!trees_.empty());  // invariant: Fit() precedes prediction.
  double sum = 0.0;
  for (const DecisionTree& tree : trees_) sum += tree.PredictProba(features);
  return sum / static_cast<double>(trees_.size());
}

std::vector<double> RandomForest::FeatureImportance(
    size_t num_features) const {
  std::vector<double> importance(num_features, 0.0);
  for (const DecisionTree& tree : trees_) {
    tree.AccumulateImportance(&importance);
  }
  double total = 0.0;
  for (double v : importance) total += v;
  if (total > 0.0) {
    for (double& v : importance) v /= total;
  }
  return importance;
}

void RandomForest::Save(std::ostream& os) const {
  os << "forest " << trees_.size() << "\n";
  for (const DecisionTree& tree : trees_) tree.Save(os);
}

int RandomForest::max_feature() const {
  int max = -1;
  for (const DecisionTree& tree : trees_) max = std::max(max, tree.max_feature());
  return max;
}

bool RandomForest::Load(std::istream& is) {
  std::string tag;
  size_t count = 0;
  if (!(is >> tag >> count) || tag != "forest") return false;
  // Grown while reading, so a corrupt count allocates no more trees than
  // the stream holds.
  std::vector<DecisionTree> trees;
  for (size_t i = 0; i < count; ++i) {
    DecisionTree tree;
    if (!tree.Load(is)) return false;
    trees.push_back(std::move(tree));
  }
  trees_ = std::move(trees);
  return true;
}

}  // namespace autobi

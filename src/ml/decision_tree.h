#ifndef AUTOBI_ML_DECISION_TREE_H_
#define AUTOBI_ML_DECISION_TREE_H_

#include <iosfwd>
#include <vector>

#include "common/rng.h"
#include "ml/dataset.h"

namespace autobi {

struct TreeOptions {
  int max_depth = 8;
  size_t min_samples_leaf = 3;
  size_t min_samples_split = 6;
  // Number of features considered per split; 0 = all (single trees),
  // sqrt(num_features) is typical inside a random forest.
  size_t features_per_split = 0;
};

// A CART binary classification tree with axis-aligned threshold splits and
// Gini impurity. Leaves store the positive-class fraction, so PredictProba
// returns a (raw, uncalibrated) probability estimate — calibration happens
// downstream (Section 4.2, "calibrate classifier scores into probabilities").
class DecisionTree {
 public:
  // Fits on the rows of `data` listed in `rows` (duplicates allowed, which is
  // how bootstrap sampling is expressed).
  void Fit(const Dataset& data, const std::vector<size_t>& rows,
           const TreeOptions& options, Rng& rng);

  // Convenience: fit on all rows.
  void Fit(const Dataset& data, const TreeOptions& options, Rng& rng);

  // Positive-class fraction at the leaf reached by `features`.
  double PredictProba(const std::vector<double>& features) const;

  size_t num_nodes() const { return nodes_.size(); }
  bool empty() const { return nodes_.empty(); }
  // Largest feature id a split reads (-1 for a single-leaf tree).
  int max_feature() const;

  // Accumulates per-feature split counts weighted by node size (a simple
  // feature-importance measure, used to report the paper's Appendix-B
  // "feature importance" lists).
  void AccumulateImportance(std::vector<double>* importance) const;

  // Text (de)serialization; one node per line. Load returns false unless
  // the nodes form a tree PredictProba can walk: at least one node, and
  // every internal node with a feature id >= 0 and both children strictly
  // after it inside the node array (so every walk ends at a leaf). The
  // caller checks max_feature() against the feature vector it will score.
  void Save(std::ostream& os) const;
  bool Load(std::istream& is);

 private:
  struct Node {
    // Internal: feature >= 0, with `left` taken when x[feature] <= threshold.
    // Leaf: feature == -1 and `proba` is the positive fraction.
    int feature = -1;
    double threshold = 0.0;
    int left = -1;
    int right = -1;
    double proba = 0.0;
    double weight = 0.0;  // Training rows that reached this node.
  };

  int Build(const Dataset& data, std::vector<size_t>& rows, size_t begin,
            size_t end, int depth, const TreeOptions& options, Rng& rng);

  std::vector<Node> nodes_;
};

}  // namespace autobi

#endif  // AUTOBI_ML_DECISION_TREE_H_

#include "ml/decision_tree.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>

#include "common/check.h"

namespace autobi {

namespace {

// Gini impurity of a (pos, total) split side.
double Gini(double pos, double total) {
  if (total <= 0.0) return 0.0;
  double p = pos / total;
  return 2.0 * p * (1.0 - p);
}

}  // namespace

void DecisionTree::Fit(const Dataset& data, const std::vector<size_t>& rows,
                       const TreeOptions& options, Rng& rng) {
  nodes_.clear();
  AUTOBI_CHECK(!rows.empty());  // invariant: forests never fit empty node sets.
  std::vector<size_t> work = rows;
  Build(data, work, 0, work.size(), 0, options, rng);
}

void DecisionTree::Fit(const Dataset& data, const TreeOptions& options,
                       Rng& rng) {
  std::vector<size_t> rows(data.num_rows());
  std::iota(rows.begin(), rows.end(), 0);
  Fit(data, rows, options, rng);
}

int DecisionTree::Build(const Dataset& data, std::vector<size_t>& rows,
                        size_t begin, size_t end, int depth,
                        const TreeOptions& options, Rng& rng) {
  size_t n = end - begin;
  double pos = 0.0;
  for (size_t i = begin; i < end; ++i) pos += data.Label(rows[i]);

  int node_index = static_cast<int>(nodes_.size());
  nodes_.emplace_back();
  nodes_[node_index].weight = static_cast<double>(n);
  nodes_[node_index].proba = pos / static_cast<double>(n);

  bool pure = (pos == 0.0 || pos == static_cast<double>(n));
  if (pure || depth >= options.max_depth || n < options.min_samples_split) {
    return node_index;  // Leaf.
  }

  // Choose the candidate feature subset for this node.
  size_t nf = data.num_features();
  std::vector<size_t> feats(nf);
  std::iota(feats.begin(), feats.end(), 0);
  size_t k = options.features_per_split == 0
                 ? nf
                 : std::min(options.features_per_split, nf);
  if (k < nf) rng.Shuffle(feats);

  // Exact best split: for each candidate feature, sort the rows by that
  // feature and scan thresholds between consecutive distinct values.
  double best_gain = 1e-12;
  int best_feature = -1;
  double best_threshold = 0.0;
  double parent_gini = Gini(pos, static_cast<double>(n));
  std::vector<std::pair<double, int>> vals;
  vals.reserve(n);
  for (size_t fi = 0; fi < k; ++fi) {
    size_t f = feats[fi];
    vals.clear();
    for (size_t i = begin; i < end; ++i) {
      vals.emplace_back(data.Feature(rows[i], f), data.Label(rows[i]));
    }
    std::sort(vals.begin(), vals.end());
    if (vals.front().first == vals.back().first) continue;  // Constant.
    double left_pos = 0.0;
    for (size_t i = 0; i + 1 < n; ++i) {
      left_pos += vals[i].second;
      if (vals[i].first == vals[i + 1].first) continue;
      size_t left_n = i + 1;
      size_t right_n = n - left_n;
      if (left_n < options.min_samples_leaf ||
          right_n < options.min_samples_leaf) {
        continue;
      }
      double right_pos = pos - left_pos;
      double wl = static_cast<double>(left_n) / static_cast<double>(n);
      double wr = 1.0 - wl;
      double child = wl * Gini(left_pos, double(left_n)) +
                     wr * Gini(right_pos, double(right_n));
      double gain = parent_gini - child;
      if (gain > best_gain) {
        best_gain = gain;
        best_feature = static_cast<int>(f);
        best_threshold = (vals[i].first + vals[i + 1].first) / 2.0;
      }
    }
  }
  if (best_feature < 0) return node_index;  // No useful split: leaf.

  // Partition rows in place around the threshold.
  size_t mid = begin;
  for (size_t i = begin; i < end; ++i) {
    if (data.Feature(rows[i], static_cast<size_t>(best_feature)) <=
        best_threshold) {
      std::swap(rows[i], rows[mid]);
      ++mid;
    }
  }
  if (mid == begin || mid == end) return node_index;  // Degenerate.

  nodes_[node_index].feature = best_feature;
  nodes_[node_index].threshold = best_threshold;
  int left = Build(data, rows, begin, mid, depth + 1, options, rng);
  int right = Build(data, rows, mid, end, depth + 1, options, rng);
  nodes_[node_index].left = left;
  nodes_[node_index].right = right;
  return node_index;
}

double DecisionTree::PredictProba(const std::vector<double>& features) const {
  AUTOBI_CHECK(!nodes_.empty());  // invariant: Fit() precedes prediction.
  int cur = 0;
  for (;;) {
    const Node& node = nodes_[static_cast<size_t>(cur)];
    if (node.feature < 0) return node.proba;
    cur = features[static_cast<size_t>(node.feature)] <= node.threshold
              ? node.left
              : node.right;
  }
}

void DecisionTree::AccumulateImportance(
    std::vector<double>* importance) const {
  for (const Node& node : nodes_) {
    if (node.feature >= 0) {
      size_t f = static_cast<size_t>(node.feature);
      if (f < importance->size()) (*importance)[f] += node.weight;
    }
  }
}

void DecisionTree::Save(std::ostream& os) const {
  os.precision(17);  // Round-trip doubles exactly.
  os << "tree " << nodes_.size() << "\n";
  for (const Node& n : nodes_) {
    os << n.feature << " " << n.threshold << " " << n.left << " " << n.right
       << " " << n.proba << " " << n.weight << "\n";
  }
}

bool DecisionTree::Load(std::istream& is) {
  std::string tag;
  size_t count = 0;
  if (!(is >> tag >> count) || tag != "tree" || count == 0) return false;
  // Grown while reading, so a corrupt count allocates no more nodes than
  // the stream holds.
  std::vector<Node> nodes;
  for (size_t i = 0; i < count; ++i) {
    Node n;
    if (!(is >> n.feature >> n.threshold >> n.left >> n.right >> n.proba >>
          n.weight)) {
      return false;
    }
    nodes.push_back(n);
  }
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& n = nodes[i];
    if (n.feature == -1 && n.left == -1 && n.right == -1) continue;  // Leaf.
    auto forward = [&](int child) {
      return child >= 0 && size_t(child) > i && size_t(child) < nodes.size();
    };
    if (n.feature < 0 || !forward(n.left) || !forward(n.right)) return false;
  }
  nodes_ = std::move(nodes);
  return true;
}

int DecisionTree::max_feature() const {
  int max = -1;
  for (const Node& n : nodes_) max = std::max(max, n.feature);
  return max;
}

}  // namespace autobi

#include "ml/calibration.h"

#include <algorithm>
#include <cmath>
#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "common/check.h"

namespace autobi {

namespace {

double Sigmoid(double z) {
  if (z >= 0) {
    double e = std::exp(-z);
    return 1.0 / (1.0 + e);
  }
  double e = std::exp(z);
  return e / (1.0 + e);
}

}  // namespace

void PlattCalibrator::Fit(const std::vector<double>& scores,
                          const std::vector<int>& labels) {
  // invariant: the trainer builds scores and labels in lockstep, non-empty.
  AUTOBI_CHECK(scores.size() == labels.size());
  AUTOBI_CHECK(!scores.empty());
  size_t n = scores.size();
  double n_pos = 0.0;
  for (int l : labels) n_pos += (l != 0);
  double n_neg = static_cast<double>(n) - n_pos;
  // Platt's label smoothing targets.
  double t_pos = (n_pos + 1.0) / (n_pos + 2.0);
  double t_neg = 1.0 / (n_neg + 2.0);

  double a = 1.0;
  double b = std::log((n_neg + 1.0) / (n_pos + 1.0));
  for (int iter = 0; iter < 100; ++iter) {
    double g_a = 0.0, g_b = 0.0;
    double h_aa = 1e-9, h_ab = 0.0, h_bb = 1e-9;
    for (size_t i = 0; i < n; ++i) {
      double s = scores[i];
      double t = labels[i] ? t_pos : t_neg;
      double p = Sigmoid(a * s + b);
      double err = p - t;
      g_a += err * s;
      g_b += err;
      double w = p * (1.0 - p);
      h_aa += w * s * s;
      h_ab += w * s;
      h_bb += w;
    }
    // Newton step: solve [h_aa h_ab; h_ab h_bb] [da db] = [g_a g_b].
    double det = h_aa * h_bb - h_ab * h_ab;
    if (std::fabs(det) < 1e-18) break;
    double da = (g_a * h_bb - g_b * h_ab) / det;
    double db = (g_b * h_aa - g_a * h_ab) / det;
    a -= da;
    b -= db;
    if (std::fabs(da) < 1e-10 && std::fabs(db) < 1e-10) break;
  }
  a_ = a;
  b_ = b;
  fitted_ = true;
}

double PlattCalibrator::Calibrate(double score) const {
  if (!fitted_) return score;
  return Sigmoid(a_ * score + b_);
}

void PlattCalibrator::Save(std::ostream& os) const {
  os.precision(17);
  os << "platt " << a_ << " " << b_ << " " << (fitted_ ? 1 : 0) << "\n";
}

bool PlattCalibrator::Load(std::istream& is) {
  std::string tag;
  int f = 0;
  if (!(is >> tag >> a_ >> b_ >> f) || tag != "platt") return false;
  fitted_ = (f != 0);
  return true;
}

void IsotonicCalibrator::Fit(const std::vector<double>& scores,
                             const std::vector<int>& labels) {
  // invariant: the trainer builds scores and labels in lockstep, non-empty.
  AUTOBI_CHECK(scores.size() == labels.size());
  AUTOBI_CHECK(!scores.empty());
  size_t n = scores.size();
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  std::sort(order.begin(), order.end(), [&](size_t x, size_t y) {
    return scores[x] < scores[y];
  });

  // PAVA with blocks (sum_y, sum_x, count).
  struct Block {
    double sum_y;
    double sum_x;
    double count;
  };
  std::vector<Block> blocks;
  blocks.reserve(n);
  for (size_t i : order) {
    blocks.push_back({labels[i] ? 1.0 : 0.0, scores[i], 1.0});
    while (blocks.size() >= 2) {
      Block& b2 = blocks[blocks.size() - 1];
      Block& b1 = blocks[blocks.size() - 2];
      if (b1.sum_y / b1.count <= b2.sum_y / b2.count) break;
      b1.sum_y += b2.sum_y;
      b1.sum_x += b2.sum_x;
      b1.count += b2.count;
      blocks.pop_back();
    }
  }
  xs_.clear();
  ys_.clear();
  for (const Block& b : blocks) {
    xs_.push_back(b.sum_x / b.count);
    ys_.push_back(b.sum_y / b.count);
  }
}

double IsotonicCalibrator::Calibrate(double score) const {
  if (xs_.empty()) return score;
  if (score <= xs_.front()) return ys_.front();
  if (score >= xs_.back()) return ys_.back();
  // Binary search for the bracketing block centers, then interpolate.
  size_t hi = static_cast<size_t>(
      std::lower_bound(xs_.begin(), xs_.end(), score) - xs_.begin());
  size_t lo = hi - 1;
  double span = xs_[hi] - xs_[lo];
  if (span <= 0.0) return ys_[lo];
  double frac = (score - xs_[lo]) / span;
  return ys_[lo] * (1.0 - frac) + ys_[hi] * frac;
}

void IsotonicCalibrator::Save(std::ostream& os) const {
  os.precision(17);
  os << "isotonic " << xs_.size() << "\n";
  for (size_t i = 0; i < xs_.size(); ++i) {
    os << xs_[i] << " " << ys_[i] << "\n";
  }
}

bool IsotonicCalibrator::Load(std::istream& is) {
  std::string tag;
  size_t n = 0;
  if (!(is >> tag >> n) || tag != "isotonic") return false;
  // Grown while reading, so a corrupt count allocates no more knots than
  // the stream holds. Calibrate binary-searches the knots, so they must
  // ascend (Fit's block centers do; equal neighbours are allowed).
  std::vector<double> xs, ys;
  for (size_t i = 0; i < n; ++i) {
    double x = 0.0, y = 0.0;
    if (!(is >> x >> y)) return false;
    if (!xs.empty() && !(x >= xs.back())) return false;
    xs.push_back(x);
    ys.push_back(y);
  }
  xs_ = std::move(xs);
  ys_ = std::move(ys);
  return true;
}

}  // namespace autobi

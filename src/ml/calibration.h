#ifndef AUTOBI_ML_CALIBRATION_H_
#define AUTOBI_ML_CALIBRATION_H_

#include <iosfwd>
#include <vector>

namespace autobi {

// Score calibration (Section 4.2): maps raw classifier scores to true
// probabilities so that P = 0.5 literally means "50% chance the join is
// correct" — the property that makes the k-MCA penalty p = -log(0.5) and the
// EMS threshold τ = 0.5 principled (Figures 8/9).

// Platt scaling: fit sigma(a*s + b) on (score, label) pairs by Newton's
// method on the log-likelihood, with the standard label smoothing of Platt's
// original method to avoid saturation.
class PlattCalibrator {
 public:
  void Fit(const std::vector<double>& scores, const std::vector<int>& labels);
  double Calibrate(double score) const;
  bool fitted() const { return fitted_; }
  double a() const { return a_; }
  double b() const { return b_; }

  void Save(std::ostream& os) const;
  bool Load(std::istream& is);

 private:
  double a_ = 1.0;
  double b_ = 0.0;
  bool fitted_ = false;
};

// Isotonic regression calibration: pool-adjacent-violators (PAVA) fit of a
// monotone step function, evaluated with linear interpolation between block
// centers. Non-parametric alternative to Platt, used in ablation tests.
class IsotonicCalibrator {
 public:
  void Fit(const std::vector<double>& scores, const std::vector<int>& labels);
  double Calibrate(double score) const;
  bool fitted() const { return !xs_.empty(); }

  // Load returns false on knots out of ascending order.
  void Save(std::ostream& os) const;
  bool Load(std::istream& is);

 private:
  std::vector<double> xs_;  // Block centers (ascending).
  std::vector<double> ys_;  // Calibrated values (non-decreasing).
};

}  // namespace autobi

#endif  // AUTOBI_ML_CALIBRATION_H_

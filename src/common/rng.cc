#include "common/rng.h"

#include <cassert>
#include <cmath>

#include "common/hash.h"

namespace autobi {

namespace {

uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

}  // namespace

Rng::Rng(uint64_t seed) {
  // The SplitMix64 generator expands the seed into the xoshiro state.
  uint64_t x = seed;
  for (auto& s : s_) {
    s = SplitMix64(x);
    x += kSplitMixGamma;
  }
  // Avoid the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 1;
}

uint64_t Rng::Next() {
  uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::NextBelow(uint64_t n) {
  assert(n > 0);
  // Rejection sampling to avoid modulo bias.
  uint64_t threshold = (0ULL - n) % n;
  for (;;) {
    uint64_t r = Next();
    if (r >= threshold) return r % n;
  }
}

int64_t Rng::NextInt(int64_t lo, int64_t hi) {
  assert(lo <= hi);
  uint64_t span = static_cast<uint64_t>(hi - lo) + 1;
  if (span == 0) return static_cast<int64_t>(Next());  // Full 64-bit range.
  return lo + static_cast<int64_t>(NextBelow(span));
}

double Rng::NextDouble() {
  return static_cast<double>(Next() >> 11) * 0x1.0p-53;
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextGaussian() {
  if (have_gaussian_) {
    have_gaussian_ = false;
    return spare_gaussian_;
  }
  double u1 = NextDouble();
  double u2 = NextDouble();
  if (u1 < 1e-300) u1 = 1e-300;
  double mag = std::sqrt(-2.0 * std::log(u1));
  spare_gaussian_ = mag * std::sin(2.0 * M_PI * u2);
  have_gaussian_ = true;
  return mag * std::cos(2.0 * M_PI * u2);
}

bool Rng::NextBool(double p) { return NextDouble() < p; }

uint64_t Rng::NextZipf(uint64_t n, double s) {
  assert(n > 0);
  if (n == 1) return 0;
  // Inverse-CDF sampling over the (truncated) harmonic weights. For the small
  // n used by the generators this is exact and fast enough.
  double h = 0.0;
  for (uint64_t i = 1; i <= n; ++i) h += 1.0 / std::pow(double(i), s);
  double u = NextDouble() * h;
  double acc = 0.0;
  for (uint64_t i = 1; i <= n; ++i) {
    acc += 1.0 / std::pow(double(i), s);
    if (acc >= u) return i - 1;
  }
  return n - 1;
}

size_t Rng::NextWeighted(const std::vector<double>& weights) {
  double total = 0.0;
  for (double w : weights) total += w;
  assert(total > 0.0);
  double u = NextDouble() * total;
  double acc = 0.0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (acc >= u) return i;
  }
  return weights.size() - 1;
}

Rng Rng::Fork() { return Rng(Next() ^ 0xA5A5A5A55A5A5A5AULL); }

}  // namespace autobi

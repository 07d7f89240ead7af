#include "text/embedding.h"

#include <cmath>

#include "common/hash.h"
#include "text/tokenize.h"

namespace autobi {

std::array<float, NgramEmbedder::kDims> NgramEmbedder::Embed(
    std::string_view text) const {
  std::array<float, kDims> v{};
  std::vector<std::string> tokens = TokenizeIdentifier(text);
  for (const std::string& raw : tokens) {
    // Pad each token so boundary n-grams are distinguished.
    std::string tok = "^" + raw + "$";
    for (size_t n = 2; n <= 4; ++n) {
      if (tok.size() < n) continue;
      for (size_t i = 0; i + n <= tok.size(); ++i) {
        std::string_view g(tok.data() + i, n);
        // FNV-1a from an offset basis perturbed by the n-gram length.
        uint64_t h = FnvBytes(kFnvOffset ^ n, g.data(), g.size());
        int idx = static_cast<int>(h % kDims);
        float sign = ((h >> 32) & 1) ? 1.0f : -1.0f;
        // Down-weight short n-grams, which are noisier.
        float w = static_cast<float>(n) / 4.0f;
        v[idx] += sign * w;
      }
    }
  }
  double norm = 0.0;
  for (float x : v) norm += double(x) * x;
  if (norm > 0.0) {
    float inv = static_cast<float>(1.0 / std::sqrt(norm));
    for (float& x : v) x *= inv;
  }
  return v;
}

double NgramEmbedder::Cosine01(const std::array<float, kDims>& a,
                               const std::array<float, kDims>& b) {
  double dot = 0.0;
  for (int i = 0; i < kDims; ++i) dot += double(a[i]) * b[i];
  // Inputs are unit vectors (or zero), so dot is the cosine up to float
  // rounding; clamp so callers get a true [0,1] value.
  double v = (dot + 1.0) / 2.0;
  return v < 0.0 ? 0.0 : (v > 1.0 ? 1.0 : v);
}

double NgramEmbedder::Similarity(std::string_view a, std::string_view b) const {
  return Cosine01(Embed(a), Embed(b));
}

}  // namespace autobi

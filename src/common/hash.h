#ifndef AUTOBI_COMMON_HASH_H_
#define AUTOBI_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>

namespace autobi {

// The stable hash primitives every layer shares: the key views' per-cell
// hashes, the content hashes, the n-gram embedding and the cache keys all
// fold bytes with these, so one value hashes the same wherever it is
// hashed. All are pure functions of their input (no seed, no address), so
// values are identical across runs, thread counts and platforms.

// 64-bit FNV-1a: the classic offset basis and prime.
inline constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
inline constexpr uint64_t kFnvPrime = 1099511628211ULL;

// One FNV-1a step: folds byte `c` into `h`.
inline uint64_t FnvStep(uint64_t h, unsigned char c) {
  return (h ^ c) * kFnvPrime;
}

// Folds `n` bytes at `data` into `h`, in order.
inline uint64_t FnvBytes(uint64_t h, const void* data, size_t n) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) h = FnvStep(h, p[i]);
  return h;
}

// SplitMix64 finalizer: a strong, stable 64 -> 64 bit mixer (a bijection
// with full avalanche). It first adds the generator's gamma, so the
// SplitMix64 generator's k-th output from seed s is SplitMix64(s + k*gamma).
inline constexpr uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;
inline uint64_t SplitMix64(uint64_t x) {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

}  // namespace autobi

#endif  // AUTOBI_COMMON_HASH_H_

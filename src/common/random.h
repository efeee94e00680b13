// Copyright 2026 The PLDP Authors.
//
// Deterministic pseudo-random number generation for PLDP.
//
// Every stochastic component in the library (mechanisms, dataset generators,
// Monte-Carlo evaluators) draws randomness through `Rng`, which is seeded
// explicitly. This makes experiments reproducible bit-for-bit: the same seed
// always yields the same stream of draws on every platform (we use our own
// xoshiro256++ implementation rather than std:: distributions, whose output
// is implementation-defined).

#ifndef PLDP_COMMON_RANDOM_H_
#define PLDP_COMMON_RANDOM_H_

#include <cstddef>
#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

namespace pldp {

/// SplitMix64 — used to expand a single 64-bit seed into generator state.
/// Public because tests and generators use it for cheap stateless hashing
/// of (seed, index) pairs into independent sub-seeds.
class SplitMix64 {
 public:
  explicit SplitMix64(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

 private:
  uint64_t state_;
};

/// Deterministic RNG (xoshiro256++) with convenience samplers for the
/// distributions PLDP needs: uniform, Bernoulli, and Laplace.
///
/// Not thread-safe; use one Rng per thread (see `Fork()`).
class Rng {
 public:
  /// Seeds the generator. Two Rngs with the same seed produce identical
  /// streams.
  explicit Rng(uint64_t seed);

  /// Next raw 64-bit value.
  uint64_t NextUint64();

  /// Uniform integer in [0, bound). `bound` must be > 0. Uses rejection
  /// sampling (Lemire) so the result is exactly uniform.
  uint64_t UniformUint64(uint64_t bound);

  /// Uniform double in [0, 1) with 53 bits of precision.
  double UniformDouble();

  /// Uniform double in [lo, hi).
  double UniformDouble(double lo, double hi);

  /// Bernoulli trial: true with probability p (clamped to [0,1]).
  bool Bernoulli(double p);

  /// Laplace(0, scale) sample. `scale` must be > 0.
  double Laplace(double scale);

  /// Deterministically derives an independent child generator. Used to give
  /// each worker / repetition its own stream without correlation.
  Rng Fork();

  /// Fisher-Yates shuffle.
  template <typename T>
  void Shuffle(std::vector<T>* v) {
    if (v->empty()) return;
    for (size_t i = v->size() - 1; i > 0; --i) {
      size_t j = static_cast<size_t>(UniformUint64(i + 1));
      std::swap((*v)[i], (*v)[j]);
    }
  }

  /// Samples k distinct indices from [0, n) in random order (k <= n).
  std::vector<size_t> SampleWithoutReplacement(size_t n, size_t k);

 private:
  uint64_t s_[4];
};

}  // namespace pldp

#endif  // PLDP_COMMON_RANDOM_H_

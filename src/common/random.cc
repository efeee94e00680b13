// Copyright 2026 The PLDP Authors.

#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace pldp {

namespace {
inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }
}  // namespace

Rng::Rng(uint64_t seed) {
  SplitMix64 sm(seed);
  for (auto& s : s_) s = sm.Next();
  // xoshiro's all-zero state is degenerate; SplitMix64 cannot produce four
  // zero outputs in a row, but guard anyway.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = 0x9e3779b97f4a7c15ULL;
}

uint64_t Rng::NextUint64() {
  // xoshiro256++ step.
  const uint64_t result = Rotl(s_[0] + s_[3], 23) + s_[0];
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

uint64_t Rng::UniformUint64(uint64_t bound) {
  // Lemire's nearly-divisionless method with rejection for exact uniformity.
  if (bound == 0) return 0;
  uint64_t x = NextUint64();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t l = static_cast<uint64_t>(m);
  if (l < bound) {
    uint64_t t = -bound % bound;
    while (l < t) {
      x = NextUint64();
      m = static_cast<__uint128_t>(x) * bound;
      l = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

double Rng::UniformDouble() {
  return static_cast<double>(NextUint64() >> 11) * 0x1.0p-53;
}

double Rng::UniformDouble(double lo, double hi) {
  return lo + (hi - lo) * UniformDouble();
}

bool Rng::Bernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return UniformDouble() < p;
}

double Rng::Laplace(double scale) {
  // Inverse-CDF sampling: u uniform in (-1/2, 1/2],
  // x = -scale * sgn(u) * ln(1 - 2|u|).
  double u = UniformDouble() - 0.5;
  double sign = (u >= 0.0) ? 1.0 : -1.0;
  double mag = std::abs(u);
  // 1 - 2*mag can only hit 0 when UniformDouble() returned exactly 0.5 or 1,
  // the latter impossible; clamp to avoid -inf.
  double arg = std::max(1.0 - 2.0 * mag, std::numeric_limits<double>::min());
  return -scale * sign * std::log(arg);
}

Rng Rng::Fork() { return Rng(NextUint64()); }

std::vector<size_t> Rng::SampleWithoutReplacement(size_t n, size_t k) {
  std::vector<size_t> all(n);
  std::iota(all.begin(), all.end(), size_t{0});
  // Partial Fisher-Yates: fix positions [0, k).
  for (size_t i = 0; i < k && i + 1 < n; ++i) {
    size_t j = i + static_cast<size_t>(UniformUint64(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min(k, n));
  return all;
}

}  // namespace pldp

// Deterministic, seedable pseudo-random number generation.
//
// All randomized components of the library (random allocation, memetic
// mutation, simulated arrival processes) draw from an explicitly seeded
// Rng so that every experiment is reproducible bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace qcap {

/// \brief xoshiro256** PRNG seeded via SplitMix64.
///
/// Fast, high-quality, and fully deterministic for a given seed. Not
/// cryptographically secure (not needed here).
class Rng {
 public:
  /// Constructs a generator from a 64-bit \p seed.
  explicit Rng(uint64_t seed = 0x9E3779B97F4A7C15ULL);

  // qcap-lint: hot-path begin
  /// Next raw 64-bit value.
  uint64_t Next() {
    const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
    const uint64_t t = s_[1] << 17;
    s_[2] ^= s_[0];
    s_[3] ^= s_[1];
    s_[1] ^= s_[2];
    s_[0] ^= s_[3];
    s_[2] ^= t;
    s_[3] = Rotl(s_[3], 45);
    return result;
  }
  // qcap-lint: hot-path end

  /// Uniform integer in [0, bound). \p bound must be > 0.
  uint64_t NextBounded(uint64_t bound);

  /// Uniform double in [0, 1).
  double NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double NextDouble(double lo, double hi);

  /// Exponentially distributed value with the given \p mean.
  double NextExponential(double mean);

  /// Normally distributed value (Box-Muller).
  double NextGaussian(double mean, double stddev);

  /// True with probability \p p (clamped to [0,1]).
  bool NextBernoulli(double p);

  /// Fisher-Yates shuffle of [first, last) index permutation helper.
  template <typename It>
  void Shuffle(It first, It last) {
    auto n = last - first;
    for (decltype(n) i = n - 1; i > 0; --i) {
      auto j = static_cast<decltype(n)>(NextBounded(static_cast<uint64_t>(i) + 1));
      std::swap(first[i], first[j]);
    }
  }

 private:
  static uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

  uint64_t s_[4];
  bool have_gauss_ = false;
  double gauss_cache_ = 0.0;
};

/// \brief Draws indices from a fixed discrete distribution in O(log K).
///
/// Every draw returns exactly the index of the reference subtractive scan
/// (`x = NextDouble() * total; x -= w[i]` until `x < 0`, else the last
/// index), with `total` summed left to right, so swapping the scan for the
/// sampler changes no draw. A draw binary-searches the left-to-right prefix
/// sums P for `x` and returns the first j with `P[j] > x` when both P[j] and
/// P[j-1] lie more than a rounding margin from `x`: the scan's running
/// value and P each stay within (j+1)·ε/2·total of the exact sums, so the
/// scan stops at j too. Anything closer (boundary hits, the floating-point
/// tail) falls back to the scan itself, about once per 10^8 draws at K in
/// the thousands.
class DiscreteSampler {
 public:
  /// Builds a sampler over \p weights (need not be normalized). Fails with
  /// InvalidArgument when there are no weights, a weight is NaN, infinite
  /// or negative, or the total is zero or overflows. \p name labels index
  /// i in the message (default "weight i"). The prefix sums are stored
  /// after the weights in the same vector, so a \p weights with capacity
  /// for 2·K values is kept without a reallocation.
  static Result<DiscreteSampler> Create(
      std::vector<double> weights,
      const std::function<std::string(size_t)>& name = nullptr);

  // qcap-lint: hot-path begin
  /// Draws one index in [0, K) using one NextDouble() of \p rng.
  size_t Sample(Rng* rng) const { return SampleAt(rng->NextDouble()); }

  /// The index drawn for the uniform variate \p u in [0, 1).
  size_t SampleAt(double u) const {
    const double x = u * total_;
    const double* prefix = table_.data() + k_;
    // Branch-free upper bound (the first j with prefix[j] > x, or K):
    // halve [lo, lo + len] down to at most 8 candidates, then count the
    // ones <= x. Trip counts depend on K alone and each step is a
    // conditional move or an add, so a random x mispredicts nothing; the
    // final count's compares are independent, which keeps the latency at
    // small K below the scan's.
    size_t lo = 0, len = k_;
    while (len > 8) {
      const size_t half = len / 2;
      lo += prefix[lo + half - 1] <= x ? half : 0;
      len -= half;
    }
    size_t j = lo;
    for (size_t i = 0; i < len; ++i) j += prefix[lo + i] <= x ? 1 : 0;
    if (j < k_ && prefix[j] - x > margin_ &&
        (j == 0 || x - prefix[j - 1] > margin_)) {
      return j;
    }
    return Scan(x);
  }
  // qcap-lint: hot-path end

 private:
  DiscreteSampler(std::vector<double> table, double margin)
      : k_(table.size() / 2),
        table_(std::move(table)),
        total_(table_.back()),
        margin_(margin) {}

  /// The reference subtractive scan for one already-scaled \p x.
  size_t Scan(double x) const;

  size_t k_;
  /// table_[i] = w[i] and table_[K + i] = w[0] + ... + w[i], summed left
  /// to right; back() is the scan's total bit for bit.
  std::vector<double> table_;
  double total_;
  double margin_;
};

}  // namespace qcap

#include "common/random.h"

#include <cassert>
#include <cmath>
#include <limits>

namespace qcap {

namespace {
uint64_t SplitMix64(uint64_t* state) {
  uint64_t z = (*state += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

Rng::Rng(uint64_t seed) {
  uint64_t sm = seed;
  for (auto& s : s_) s = SplitMix64(&sm);
}

uint64_t Rng::NextBounded(uint64_t bound) {
  assert(bound > 0);
  // Rejection sampling to avoid modulo bias.
  const uint64_t threshold = (0ULL - bound) % bound;
  for (;;) {
    const uint64_t r = Next();
    if (r >= threshold) return r % bound;
  }
}

double Rng::NextDouble(double lo, double hi) {
  return lo + (hi - lo) * NextDouble();
}

double Rng::NextExponential(double mean) {
  double u;
  do {
    u = NextDouble();
  } while (u <= 0.0);
  return -mean * std::log(u);
}

double Rng::NextGaussian(double mean, double stddev) {
  if (have_gauss_) {
    have_gauss_ = false;
    return mean + stddev * gauss_cache_;
  }
  double u1, u2;
  do {
    u1 = NextDouble();
  } while (u1 <= 0.0);
  u2 = NextDouble();
  const double r = std::sqrt(-2.0 * std::log(u1));
  const double theta = 2.0 * M_PI * u2;
  gauss_cache_ = r * std::sin(theta);
  have_gauss_ = true;
  return mean + stddev * r * std::cos(theta);
}

bool Rng::NextBernoulli(double p) {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return NextDouble() < p;
}

Result<DiscreteSampler> DiscreteSampler::Create(
    std::vector<double> weights,
    const std::function<std::string(size_t)>& name) {
  const auto label = [&](size_t i) {
    return name ? name(i) : "weight " + std::to_string(i);
  };
  const size_t k = weights.size();
  if (k == 0) {
    return Status::InvalidArgument("discrete distribution has no outcomes");
  }
  weights.resize(2 * k);
  double total = 0.0;
  for (size_t i = 0; i < k; ++i) {
    if (!std::isfinite(weights[i])) {
      return Status::InvalidArgument(label(i) + " is not finite");
    }
    if (weights[i] < 0.0) {
      return Status::InvalidArgument(label(i) + " is negative");
    }
    total += weights[i];
    weights[k + i] = total;
  }
  if (std::isinf(total)) {
    return Status::InvalidArgument("weights overflow when summed");
  }
  if (total == 0.0) return Status::InvalidArgument("weights sum to zero");
  // The scan's running value and the prefix sums each drift at most
  // K·ε/2·total from the exact sums; a margin four times their sum keeps
  // every fast-path answer certain.
  const double margin = 4.0 * static_cast<double>(k + 2) *
                        std::numeric_limits<double>::epsilon() * total;
  return DiscreteSampler(std::move(weights), margin);
}

// qcap-lint: hot-path begin
size_t DiscreteSampler::Scan(double x) const {
  for (size_t i = 0; i < k_; ++i) {
    x -= table_[i];
    if (x < 0.0) return i;
  }
  return k_ - 1;  // Floating-point tail: return last index.
}
// qcap-lint: hot-path end

}  // namespace qcap

#include "common/random.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace qcap {
namespace {

TEST(RngTest, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) ++equal;
  }
  EXPECT_LT(equal, 4);
}

TEST(RngTest, BoundedStaysInRange) {
  Rng rng(7);
  for (uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.NextBounded(bound), bound);
    }
  }
}

TEST(RngTest, BoundedOneAlwaysZero) {
  Rng rng(7);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(rng.NextBounded(1), 0u);
}

TEST(RngTest, DoubleInUnitInterval) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(RngTest, DoubleRange) {
  Rng rng(11);
  for (int i = 0; i < 1000; ++i) {
    const double d = rng.NextDouble(-5.0, 3.0);
    EXPECT_GE(d, -5.0);
    EXPECT_LT(d, 3.0);
  }
}

TEST(RngTest, UniformMeanNearHalf) {
  Rng rng(13);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.NextDouble();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, ExponentialMeanMatches) {
  Rng rng(17);
  double sum = 0.0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) sum += rng.NextExponential(2.5);
  EXPECT_NEAR(sum / n, 2.5, 0.1);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(19);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.NextGaussian(3.0, 2.0);
    sum += x;
    sq += x * x;
  }
  const double mean = sum / n;
  const double var = sq / n - mean * mean;
  EXPECT_NEAR(mean, 3.0, 0.1);
  EXPECT_NEAR(std::sqrt(var), 2.0, 0.1);
}

TEST(RngTest, BernoulliEdgeCases) {
  Rng rng(23);
  for (int i = 0; i < 20; ++i) {
    EXPECT_FALSE(rng.NextBernoulli(0.0));
    EXPECT_TRUE(rng.NextBernoulli(1.0));
    EXPECT_FALSE(rng.NextBernoulli(-1.0));
    EXPECT_TRUE(rng.NextBernoulli(2.0));
  }
}

TEST(RngTest, BernoulliFrequency) {
  Rng rng(29);
  int hits = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (rng.NextBernoulli(0.3)) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(RngTest, ShuffleIsPermutation) {
  Rng rng(41);
  std::vector<int> v(50);
  std::iota(v.begin(), v.end(), 0);
  std::vector<int> shuffled = v;
  rng.Shuffle(shuffled.begin(), shuffled.end());
  EXPECT_FALSE(std::equal(v.begin(), v.end(), shuffled.begin()));
  std::sort(shuffled.begin(), shuffled.end());
  EXPECT_EQ(v, shuffled);
}

/// The subtractive scan DiscreteSampler must reproduce draw for draw:
/// the weights summed left to right, x = u * total, then x -= w[i] until
/// it goes negative, else the last index.
size_t ReferenceScan(const std::vector<double>& weights, double u) {
  double total = 0.0;
  for (double w : weights) total += w;
  double x = u * total;
  for (size_t i = 0; i < weights.size(); ++i) {
    x -= weights[i];
    if (x < 0.0) return i;
  }
  return weights.size() - 1;
}

/// Uniform variates that put x = u * total on or next to every prefix sum
/// (where they are representable as u), plus both ends of [0, 1).
std::vector<double> BoundaryVariates(const std::vector<double>& weights) {
  std::vector<double> prefix;
  double total = 0.0;
  for (double w : weights) {
    total += w;
    prefix.push_back(total);
  }
  std::vector<double> us = {0.0, std::nextafter(1.0, 0.0)};
  for (double p : prefix) {
    const double u = p / total;
    for (double v : {std::nextafter(u, 0.0), u, std::nextafter(u, 1.0)}) {
      if (v >= 0.0 && v < 1.0) us.push_back(v);
    }
  }
  return us;
}

struct SamplerCase {
  const char* name;
  std::vector<double> weights;
};

TEST(DiscreteSamplerTest, MatchesSubtractiveScanOnEveryDraw) {
  const std::vector<SamplerCase> cases = {
      {"single class", {2.5}},
      {"leading zeros", {0.0, 0.0, 1.0, 2.0}},
      {"trailing zeros", {1.0, 2.0, 0.0, 0.0}},
      {"interior zeros", {1.0, 0.0, 0.0, 2.0, 0.0, 3.0}},
      {"spread 1e-300..1e300",
       {1e-300, 1e300, 1e-300, 1.0, 1e150, 1e300, 1e-150, 7e299}},
      {"tiny tail", {1.0, 1e-17}},
      {"dyadic prefix sums", {1.0, 1.0, 2.0, 0.5, 0.5, 3.0}},
      {"thirds", {1.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0}},
  };
  size_t draws = 0;
  for (const SamplerCase& c : cases) {
    auto sampler = DiscreteSampler::Create(c.weights);
    ASSERT_TRUE(sampler.ok()) << c.name << ": " << sampler.status().ToString();
    for (double u : BoundaryVariates(c.weights)) {
      ASSERT_EQ(sampler->SampleAt(u), ReferenceScan(c.weights, u))
          << c.name << " u=" << u;
    }
    Rng a(43), b(43);
    for (int i = 0; i < 100000; ++i, ++draws) {
      ASSERT_EQ(sampler->Sample(&a), ReferenceScan(c.weights, b.NextDouble()))
          << c.name << " draw " << i;
    }
  }
  // Random mixes like the simulator's: up to 3,000 classes, 5% zero
  // weights, the rest log-uniform over 1e-12..1e6.
  Rng gen(47);
  for (int v = 0; v < 40; ++v) {
    std::vector<double> weights(1 + gen.NextBounded(3000));
    for (double& w : weights) {
      w = gen.NextBernoulli(0.05) ? 0.0
                                  : std::pow(10.0, gen.NextDouble(-12.0, 6.0));
    }
    weights[gen.NextBounded(weights.size())] = 1.0;  // a positive total
    auto sampler = DiscreteSampler::Create(weights);
    ASSERT_TRUE(sampler.ok()) << sampler.status().ToString();
    for (double u : BoundaryVariates(weights)) {
      ASSERT_EQ(sampler->SampleAt(u), ReferenceScan(weights, u))
          << "mix " << v << " u=" << u;
    }
    Rng a(53 + v), b(53 + v);
    for (int i = 0; i < 10000; ++i, ++draws) {
      ASSERT_EQ(sampler->Sample(&a), ReferenceScan(weights, b.NextDouble()))
          << "mix " << v << " draw " << i;
    }
  }
  EXPECT_GE(draws, 1000000u);
}

TEST(DiscreteSamplerTest, RespectsWeights) {
  Rng rng(31);
  auto sampler = DiscreteSampler::Create({1.0, 3.0, 6.0});
  ASSERT_TRUE(sampler.ok());
  std::vector<int> counts(3, 0);
  const int n = 30000;
  for (int i = 0; i < n; ++i) counts[sampler->Sample(&rng)]++;
  EXPECT_NEAR(counts[0] / static_cast<double>(n), 0.1, 0.02);
  EXPECT_NEAR(counts[1] / static_cast<double>(n), 0.3, 0.02);
  EXPECT_NEAR(counts[2] / static_cast<double>(n), 0.6, 0.02);
}

TEST(DiscreteSamplerTest, ZeroWeightNeverDrawn) {
  Rng rng(37);
  for (const std::vector<double>& weights :
       {std::vector<double>{0.0, 1.0, 0.0},
        std::vector<double>{0.0, 3.0, 0.0, 0.0, 1e-9, 0.0, 5.0, 0.0}}) {
    auto sampler = DiscreteSampler::Create(weights);
    ASSERT_TRUE(sampler.ok());
    for (int i = 0; i < 100000; ++i) {
      EXPECT_GT(weights[sampler->Sample(&rng)], 0.0);
    }
    for (double u : BoundaryVariates(weights)) {
      EXPECT_GT(weights[sampler->SampleAt(u)], 0.0) << "u=" << u;
    }
  }
}

TEST(DiscreteSamplerTest, RejectsWeightsItCannotSample) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const std::vector<double>& weights :
       {std::vector<double>{}, std::vector<double>{1.0, nan},
        std::vector<double>{inf, 1.0}, std::vector<double>{1.0, -0.5},
        std::vector<double>{0.0, 0.0}, std::vector<double>{1e308, 1e308}}) {
    EXPECT_TRUE(DiscreteSampler::Create(weights).status().IsInvalidArgument())
        << weights.size();
  }
  const Status named = DiscreteSampler::Create({1.0, nan}, [](size_t i) {
                         return "outcome #" + std::to_string(i);
                       }).status();
  EXPECT_NE(named.message().find("outcome #1"), std::string::npos)
      << named.ToString();
}

class RngSeedSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RngSeedSweep, BoundedUniformityAcrossSeeds) {
  Rng rng(GetParam());
  std::vector<int> buckets(8, 0);
  const int n = 8000;
  for (int i = 0; i < n; ++i) buckets[rng.NextBounded(8)]++;
  for (int count : buckets) {
    EXPECT_NEAR(count, n / 8, n / 20);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RngSeedSweep,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

}  // namespace
}  // namespace qcap

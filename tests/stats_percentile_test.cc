// Regression tests for the shared percentile machinery in
// common/stats.h and cluster/stats.h. The serving layer's METRICS endpoint
// reads these helpers on an *idle* server (zero samples), which previously
// leaned on every caller guarding emptiness themselves; the helpers are now
// total: no sample-vector underflow, no NaN propagation into the
// double→size_t cast, no division by a zero performance share. The
// LatencyHistogram tests pin its 0.5% agreement with the exact accumulator.
#include "cluster/stats.h"
#include "common/random.h"
#include "common/stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace qcap {
namespace {

TEST(ResponseAccumulatorTest, EmptyAccumulatorIsZeroEverywhere) {
  ResponseAccumulator acc;
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.mean(), 0.0);
  EXPECT_EQ(acc.max(), 0.0);
  EXPECT_EQ(acc.Percentile(0.5), 0.0);
  EXPECT_EQ(acc.Percentile(0.99), 0.0);
  std::vector<double> scratch;
  double p50 = -1.0;
  double p95 = -1.0;
  double p99 = -1.0;
  acc.Percentiles(&scratch, &p50, &p95, &p99);
  EXPECT_EQ(p50, 0.0);
  EXPECT_EQ(p95, 0.0);
  EXPECT_EQ(p99, 0.0);
}

TEST(ResponseAccumulatorTest, EmptyAccumulatorSurvivesDegenerateP) {
  ResponseAccumulator acc;
  // Out-of-range and non-finite percentile requests on no samples must
  // return 0, not crash or produce NaN.
  EXPECT_EQ(acc.Percentile(0.0), 0.0);
  EXPECT_EQ(acc.Percentile(-1.0), 0.0);
  EXPECT_EQ(acc.Percentile(2.0), 0.0);
  EXPECT_EQ(acc.Percentile(std::numeric_limits<double>::quiet_NaN()), 0.0);
}

TEST(ResponseAccumulatorTest, NanPercentileSelectsTheMaximum) {
  ResponseAccumulator acc;
  acc.Add(0.3);
  acc.Add(0.1);
  acc.Add(0.2);
  // NaN p previously made the double→size_t cast undefined; it now selects
  // the maximum sample (the defensive reading of "quantile unknown").
  const double v = acc.Percentile(std::numeric_limits<double>::quiet_NaN());
  EXPECT_FALSE(std::isnan(v));
  EXPECT_DOUBLE_EQ(v, 0.3);
}

TEST(ResponseAccumulatorTest, SingleSampleIsEveryPercentile) {
  ResponseAccumulator acc;
  acc.Add(0.042);
  EXPECT_DOUBLE_EQ(acc.Percentile(0.01), 0.042);
  EXPECT_DOUBLE_EQ(acc.Percentile(0.5), 0.042);
  EXPECT_DOUBLE_EQ(acc.Percentile(1.0), 0.042);
  std::vector<double> scratch;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  acc.Percentiles(&scratch, &p50, &p95, &p99);
  EXPECT_DOUBLE_EQ(p50, 0.042);
  EXPECT_DOUBLE_EQ(p95, 0.042);
  EXPECT_DOUBLE_EQ(p99, 0.042);
}

TEST(ResponseAccumulatorTest, PercentilesMatchSingleCallsAfterReset) {
  ResponseAccumulator acc;
  // Fill, reset, refill: the scratch-reuse path must behave like fresh.
  for (int i = 0; i < 100; ++i) acc.Add(1.0);
  acc.Reset();
  EXPECT_EQ(acc.count(), 0u);
  EXPECT_EQ(acc.Percentile(0.95), 0.0);
  for (int i = 1; i <= 100; ++i) acc.Add(static_cast<double>(i));
  std::vector<double> scratch;
  double p50 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  acc.Percentiles(&scratch, &p50, &p95, &p99);
  EXPECT_DOUBLE_EQ(p50, acc.Percentile(0.50));
  EXPECT_DOUBLE_EQ(p95, acc.Percentile(0.95));
  EXPECT_DOUBLE_EQ(p99, acc.Percentile(0.99));
  EXPECT_DOUBLE_EQ(p50, 50.0);
  EXPECT_DOUBLE_EQ(p95, 95.0);
  EXPECT_DOUBLE_EQ(p99, 99.0);
}

TEST(LatencyHistogramTest, EmptyHistogramIsZeroEverywhere) {
  LatencyHistogram h;
  EXPECT_EQ(h.count(), 0u);
  EXPECT_EQ(h.max(), 0.0);
  for (double p : {0.0, 0.5, 0.95, 0.99, 1.0, -1.0, 2.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(h.Percentile(p), 0.0) << p;
  }
}

TEST(LatencyHistogramTest, SingleSampleIsEveryPercentile) {
  LatencyHistogram h;
  h.Add(0.042);
  for (double p : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0, -1.0, 2.0,
                   std::numeric_limits<double>::quiet_NaN()}) {
    EXPECT_EQ(h.Percentile(p), 0.042) << p;
  }
  EXPECT_EQ(h.max(), 0.042);
  EXPECT_EQ(h.count(), 1u);
}

TEST(LatencyHistogramTest, OutOfRangeSamplesClampToTheEdgeBuckets) {
  LatencyHistogram low;
  // Below 100 ns, zero and negative all land in the first bucket.
  for (double v : {1e-9, 5e-8, 0.0, -1.0}) low.Add(v);
  low.Add(1e-3);
  EXPECT_EQ(low.count(), 5u);
  EXPECT_EQ(low.max(), 1e-3);
  // Interpolated inside [100 ns, 100.5 ns], then clamped to the samples.
  EXPECT_LE(low.Percentile(0.5), 1.006e-7);
  EXPECT_GE(low.Percentile(0.5), 0.0);

  LatencyHistogram high;
  high.Add(1e-3);
  for (double v : {500.0, 1e6, std::numeric_limits<double>::infinity()}) {
    high.Add(v);
  }
  EXPECT_EQ(high.count(), 4u);
  EXPECT_EQ(high.max(), std::numeric_limits<double>::infinity());
  // Above 100 s everything shares the last bucket, about 100 s.
  const double p75 = high.Percentile(0.75);
  EXPECT_GE(p75, 99.0);
  EXPECT_LE(p75, 101.0);
  // NaN p still selects the exact maximum.
  EXPECT_EQ(high.Percentile(std::numeric_limits<double>::quiet_NaN()),
            std::numeric_limits<double>::infinity());
}

TEST(LatencyHistogramTest, MaxAndCountAreExactAndBoundEveryPercentile) {
  LatencyHistogram h;
  Rng rng(7);
  double max = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double v = rng.NextDouble(1e-6, 3e-3);
    max = std::max(max, v);
    h.Add(v);
  }
  EXPECT_EQ(h.count(), 10000u);
  EXPECT_EQ(h.max(), max);
  double previous = 0.0;
  for (double p = 0.0; p <= 1.0; p += 0.01) {
    const double v = h.Percentile(p);
    EXPECT_LE(v, max) << p;
    EXPECT_GE(v, previous) << p;  // monotone in p
    previous = v;
  }
  EXPECT_EQ(h.Percentile(1.0), max);
  EXPECT_EQ(h.Percentile(2.0), max);
}

TEST(LatencyHistogramTest, MatchesExactNearestRankWithinHalfAPercent) {
  LatencyHistogram h;
  ResponseAccumulator exact;
  Rng rng(20170514);
  for (int i = 0; i < 100000; ++i) {
    // Log-normal around 20 us, the shape of routing latencies.
    const double v = 20e-6 * std::exp(rng.NextGaussian(0.0, 0.8));
    h.Add(v);
    exact.Add(v);
  }
  ASSERT_EQ(h.count(), exact.count());
  EXPECT_EQ(h.max(), exact.max());
  for (double p : {0.50, 0.95, 0.99}) {
    const double want = exact.Percentile(p);
    EXPECT_NEAR(h.Percentile(p), want, 0.005 * want) << p;
  }
}

TEST(SimStatsTest, BusyBalanceDeviationGuardsZeroLoadShares) {
  SimStats stats;
  stats.backend_busy_seconds = {1.0, 2.0, 3.0};
  // A zero performance share previously divided to inf and poisoned the
  // deviation with NaN; it now contributes zero normalized load.
  const double dev = stats.BusyBalanceDeviation({0.5, 0.0, 0.5});
  EXPECT_TRUE(std::isfinite(dev));
  EXPECT_GE(dev, 0.0);
  // All-zero shares: average is zero, deviation is defined as zero.
  EXPECT_EQ(stats.BusyBalanceDeviation({0.0, 0.0, 0.0}), 0.0);
}

TEST(SimStatsTest, BusyBalanceDeviationEmptyAndMismatchedInputs) {
  SimStats stats;
  EXPECT_EQ(stats.BusyBalanceDeviation({}), 0.0);
  stats.backend_busy_seconds = {1.0, 2.0};
  EXPECT_EQ(stats.BusyBalanceDeviation({1.0}), 0.0);  // size mismatch
}

}  // namespace
}  // namespace qcap

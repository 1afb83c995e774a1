#include "common/stats.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "common/strings.h"

namespace qcap {

SearchProgress::SearchProgress()
    : best_scale_bits(
          std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity())) {}

void SearchProgress::RecordScale(double scale) {
  const uint64_t bits = std::bit_cast<uint64_t>(scale);
  uint64_t current = best_scale_bits.load(std::memory_order_relaxed);
  // Positive doubles compare the same as their bit patterns, so a CAS loop
  // on the raw bits implements an atomic min.
  while (scale < std::bit_cast<double>(current) &&
         !best_scale_bits.compare_exchange_weak(current, bits,
                                                std::memory_order_relaxed)) {
  }
}

double SearchProgress::best_scale() const {
  return std::bit_cast<double>(best_scale_bits.load(std::memory_order_relaxed));
}

void SearchProgress::Reset() {
  generations.store(0, std::memory_order_relaxed);
  evaluations.store(0, std::memory_order_relaxed);
  improvements.store(0, std::memory_order_relaxed);
  migrations.store(0, std::memory_order_relaxed);
  best_scale_bits.store(
      std::bit_cast<uint64_t>(std::numeric_limits<double>::infinity()),
      std::memory_order_relaxed);
}

std::string SearchProgress::ToString() const {
  const double scale = best_scale();
  return "generations=" + std::to_string(generations.load()) +
         ", evaluations=" + std::to_string(evaluations.load()) +
         ", improvements=" + std::to_string(improvements.load()) +
         ", migrations=" + std::to_string(migrations.load()) +
         ", best_scale=" +
         (std::isinf(scale) ? std::string("inf") : FormatDouble(scale, 4));
}

namespace {

/// Nearest-rank index (0-based) of percentile \p p among \p n samples.
/// Total: n == 0 maps to index 0 (callers with no samples must not
/// dereference, but the index itself stays in range instead of
/// underflowing to SIZE_MAX), and a NaN \p p — e.g. a quantile computed
/// from other NaN-poisoned stats — selects the maximum instead of making
/// the double→size_t cast undefined.
size_t NearestRankIndex(double p, size_t n) {
  if (n == 0) return 0;
  if (std::isnan(p)) return n - 1;
  const double clamped = std::min(std::max(p, 0.0), 1.0);
  size_t rank = static_cast<size_t>(std::ceil(clamped * static_cast<double>(n)));
  if (rank == 0) rank = 1;
  if (rank > n) rank = n;
  return rank - 1;
}

}  // namespace

double ResponseAccumulator::Percentile(double p) const {
  if (samples_.empty()) return 0.0;
  std::vector<double> sorted = samples_;
  const size_t k = NearestRankIndex(p, sorted.size());
  std::nth_element(sorted.begin(), sorted.begin() + k, sorted.end());
  return sorted[k];
}

void ResponseAccumulator::Percentiles(std::vector<double>* scratch,
                                      double* p50, double* p95,
                                      double* p99) const {
  if (samples_.empty()) {
    *p50 = *p95 = *p99 = 0.0;
    return;
  }
  *scratch = samples_;
  const size_t n = scratch->size();
  const size_t k50 = NearestRankIndex(0.50, n);
  const size_t k95 = NearestRankIndex(0.95, n);
  const size_t k99 = NearestRankIndex(0.99, n);
  // Nested selections: after placing the k50-th order statistic, everything
  // left of it is <= everything right, so the later (larger-rank) selections
  // only need the tail range. Order-statistic values are range-independent,
  // so each equals the value a full sort would put at that index.
  auto begin = scratch->begin();
  std::nth_element(begin, begin + k50, scratch->end());
  *p50 = (*scratch)[k50];
  std::nth_element(begin + k50, begin + k95, scratch->end());
  *p95 = (*scratch)[k95];
  std::nth_element(begin + k95, begin + k99, scratch->end());
  *p99 = (*scratch)[k99];
}

void LatencyHistogram::Add(double seconds) {
  // Compare in floating point before the cast: a sample below the range
  // (zero, negative, NaN) takes bucket 0, one above it (inf too) the last.
  const double x = std::log(seconds / kMinSeconds) * kPerE;
  size_t bucket = 0;
  if (x >= static_cast<double>(kBuckets - 1)) {
    bucket = kBuckets - 1;
  } else if (x > 0.0) {
    bucket = static_cast<size_t>(x);
  }
  ++buckets_[bucket];
  if (seconds < min_) min_ = seconds;
  if (seconds > max_) max_ = seconds;
  ++count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) return 0.0;
  if (std::isnan(p)) return max_;
  // The nearest-rank sample is the first whose cumulative count reaches
  // p * count; interpolate log-linearly inside its bucket.
  const double rank =
      std::min(std::max(p, 0.0), 1.0) * static_cast<double>(count_);
  double below = 0.0;
  size_t i = 0;
  for (; i + 1 < kBuckets; ++i) {
    const auto n = static_cast<double>(buckets_[i]);
    if (n > 0.0 && below + n >= rank) break;
    below += n;
  }
  const auto n = static_cast<double>(buckets_[i]);
  const double within =
      n > 0.0 ? std::min(std::max((rank - below) / n, 0.0), 1.0) : 0.0;
  const double estimate =
      kMinSeconds * std::exp((static_cast<double>(i) + within) / kPerE);
  return std::min(std::max(estimate, min_), max_);
}

}  // namespace qcap

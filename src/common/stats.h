// Shared measurement primitives: live progress counters for long-running
// allocation searches, the exact-percentile response-time accumulator, and
// the fixed-memory latency histogram.
//
// These used to live in cluster/stats.h; they moved down to common/ so
// that the allocation-search layer (alloc/) and the serving layer (net/)
// can use them without depending on the cluster simulator — the module
// layering DAG (.qcap-layers) forbids alloc → cluster edges.
#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

namespace qcap {

/// \brief Thread-safe progress counters for a running allocation search.
///
/// The island-model memetic allocator (alloc/memetic.h) updates these from
/// its worker threads (relaxed atomics — counters, not synchronization);
/// an operator thread may read a consistent-enough snapshot at any time,
/// e.g. to drive a progress display while a large search runs.
struct SearchProgress {
  /// Generations completed, summed over all islands.
  std::atomic<uint64_t> generations{0};
  /// Cost-function evaluations (the search's unit of work).
  std::atomic<uint64_t> evaluations{0};
  /// Accepted local-search improvement moves (Eq. 21-26 hits).
  std::atomic<uint64_t> improvements{0};
  /// Inter-island best-solution migrations applied.
  std::atomic<uint64_t> migrations{0};
  /// Best scale factor seen so far (bit pattern of a double; starts at
  /// +infinity). Use best_scale()/RecordScale() instead of touching it.
  std::atomic<uint64_t> best_scale_bits;

  SearchProgress();

  /// Lowers the recorded best scale to \p scale if it improves on it.
  void RecordScale(double scale);
  /// Best scale recorded so far (+infinity until the first RecordScale).
  double best_scale() const;

  /// Resets every counter to its initial state.
  void Reset();

  /// One-line human-readable snapshot.
  std::string ToString() const;
};

/// Mean/max/percentile accumulator for response times. Samples are kept so
/// percentiles are exact (nearest-rank), not approximated.
class ResponseAccumulator {
 public:
  void Add(double seconds) {
    sum_ += seconds;
    if (seconds > max_) max_ = seconds;
    samples_.push_back(seconds);
  }
  double mean() const {
    return samples_.empty() ? 0.0 : sum_ / static_cast<double>(samples_.size());
  }
  double max() const { return max_; }
  uint64_t count() const { return samples_.size(); }

  /// Drops all samples, keeping their capacity (scratch reuse across runs).
  void Reset() {
    sum_ = 0.0;
    max_ = 0.0;
    samples_.clear();
  }
  /// Pre-grows sample storage for \p n Add() calls.
  void Reserve(size_t n) { samples_.reserve(n); }

  /// Nearest-rank percentile for \p p in (0, 1]. Total on degenerate
  /// input: 0 when no samples (never NaN — the serving metrics endpoint
  /// reads this on an idle server), out-of-range \p p clamps to [0, 1],
  /// and a NaN \p p selects the maximum sample.
  double Percentile(double p) const;

  /// p50/p95/p99 in one call: copies the samples into \p *scratch (reused,
  /// capacity kept) and runs three progressive nth_element selections, each
  /// restricted to the tail the previous one partitioned — same values as
  /// three Percentile() calls at a fraction of the selection work and no
  /// per-call allocation once \p scratch is warm.
  void Percentiles(std::vector<double>* scratch, double* p50, double* p95,
                   double* p99) const;

 private:
  double sum_ = 0.0;
  double max_ = 0.0;
  std::vector<double> samples_;
};

/// \brief Fixed-memory latency histogram: log-spaced buckets 0.5% wide
/// from 100 ns to 100 s.
///
/// For a sample stream that never ends, such as a server's routing
/// latencies, where ResponseAccumulator would keep every sample. Add is
/// O(1) and never allocates; memory is the same for one sample or a
/// billion. Percentiles are interpolated inside the bucket that holds the
/// nearest-rank sample, so for samples inside the range they are within
/// 0.5% of ResponseAccumulator's exact values; max and count stay exact.
/// Samples below 100 ns count in the first bucket, above 100 s in the last.
class LatencyHistogram {
 public:
  void Add(double seconds);
  /// Largest sample (0 when empty), exact.
  double max() const { return max_; }
  uint64_t count() const { return count_; }

  /// The \p p quantile, seconds, clamped to [smallest, largest] sample
  /// (so one sample is every percentile). Total like
  /// ResponseAccumulator::Percentile: 0 when empty, out-of-range \p p
  /// clamps to [0, 1], and a NaN \p p selects the maximum.
  double Percentile(double p) const;

 private:
  static constexpr double kMinSeconds = 1e-7;
  static constexpr double kPerE = 200.0;  ///< Buckets per factor of e.
  /// ln(100 s / 100 ns) * kPerE, rounded up.
  static constexpr size_t kBuckets = 4145;
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  double min_ = std::numeric_limits<double>::infinity();
  double max_ = 0.0;
};

}  // namespace qcap

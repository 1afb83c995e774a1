// Per-query service-time cost model for the cluster simulator.
//
// Service time of one execution of a query class on a backend:
//
//   t = mean_cost(C) * (io_fraction * scan_scale(C) * cache_penalty(B)
//                       + (1 - io_fraction)) * overhead(C) / speed(B)
//
// where
//   - mean_cost(C): measured per-execution cost from the journal (seconds);
//   - scan_scale(C): bytes the class touches at the classification
//     granularity relative to touching its tables in full — this is what
//     makes column-granular allocations faster (vertical partitioning
//     improves transfer from disk, Section 4.1);
//   - overhead(C): a small slowdown for column-granular classes, which
//     stitch vertical fragments back together;
//   - cache_penalty(B): grows as the backend's resident data exceeds its
//     memory — this is what makes specialized backends super-linear
//     ("less data is stored on the nodes and the caching improves");
//   - speed(B): the backend's relative processing power (heterogeneity).
//
// scan_scale and overhead are per-class factors, cache_penalty and speed
// per-backend factors; a cell only combines them. ServiceMatrix computes
// each factor once: O(F) to give every fragment a dense table id,
// O(|C|) per class for its factors (the full-table bytes are memoised per
// referenced-table set), O(Σ|C|) per backend for its working set, then
// O(1) per cell — O(F + Σ|C| · (1 + backends) + classes × backends) in
// all, plus one O(F) catalog pass per distinct referenced-table set.
#pragma once

#include <vector>

#include "engine/catalog.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap::engine {

/// Tunable parameters of the service-time model.
struct CostModelParams {
  /// Fraction of query time that scales with scanned bytes and caching.
  double io_fraction = 0.7;
  /// Memory available for caching on each backend, in bytes.
  double memory_bytes = 2.0 * 1024 * 1024 * 1024;
  /// Penalty multiplier on the I/O part when nothing fits in memory.
  double max_cache_penalty = 3.0;
};

/// \brief Computes deterministic service times for (class, backend) pairs
/// under a concrete allocation.
class CostModel {
 public:
  explicit CostModel(CostModelParams params = {}) : params_(params) {}

  /// Service seconds for one execution of \p c on backend \p b.
  /// \p resident_bytes is the backend's total stored bytes under the
  /// current allocation; \p speed is its relative performance times the
  /// number of backends (1.0 in a homogeneous cluster).
  double ServiceSeconds(const Classification& cls, const QueryClass& c,
                        double resident_bytes, double speed) const;

  /// Precomputes the service time of every (class, backend) pair, row-major
  /// with stride backends.size(): cell (class, b) is at
  /// class * backends.size() + b, read classes first, then update classes.
  /// \p alloc must have backends.size() backends and one placement bit per
  /// catalog fragment.
  ///
  /// The cache penalty is driven by each backend's *working set* — the
  /// union of fragments of the classes it is eligible for (reads whose
  /// fragments it holds, updates overlapping its data), inflated by 10%
  /// per additional class for buffer-pool mixing — not its raw stored
  /// bytes: a fully replicated backend serves every class (working set =
  /// whole database), while a specialized backend touches only its
  /// classes' data, which is the caching advantage the paper observes for
  /// partial replication.
  std::vector<double> ServiceMatrix(
      const Classification& cls, const Allocation& alloc,
      const std::vector<BackendSpec>& backends) const;

  const CostModelParams& params() const { return params_; }

 private:
  CostModelParams params_;
};

}  // namespace qcap::engine

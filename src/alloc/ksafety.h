// K-safe greedy allocation (Appendix C, Algorithm 4).
//
// Ensures every query class is executable on at least k+1 backends and
// every fragment is stored at least k+1 times, so the cluster survives the
// loss of any k backends with no data loss and no reallocation.
#pragma once

#include "alloc/allocator.h"

namespace qcap {

/// Options for the k-safe allocator.
struct KSafetyOptions {
  /// Number of tolerated backend failures; k+1 replicas of every class.
  int k = 1;
  double epsilon = 1e-12;
  size_t max_iterations = 0;  ///< 0 = derive from problem size.
};

/// \brief Algorithm 4: greedy allocation with k+1-fold class replication.
///
/// Extends Algorithm 1 so the k-safe validity constraints (Eq. 46/47)
/// hold: each read class is spread over at least k+1 backends (its weight
/// split between them) and consequently every fragment has at least k+1
/// replicas. The paper's Algorithm 3 (checking k-safety of an existing
/// allocation) lives in model/validation.h.
///
/// Runs on the same pieces as GreedyAllocator: a heap of pending classes
/// (split read classes and zero-weight replicas are pushed back with their
/// key at that moment), one scoring pass per pop and the delta update
/// closure for every placement, the final k+1 top-up included.
class KSafeGreedyAllocator : public Allocator {
 public:
  explicit KSafeGreedyAllocator(KSafetyOptions options = {})
      : options_(options) {}

  /// Runs Algorithm 4 on \p cls over \p backends.
  /// \returns an allocation that survives any \ref KSafetyOptions::k
  /// simultaneous backend failures, or a Status (e.g. fewer than k+1
  /// backends).
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override;
  std::string name() const override {
    return "greedy-k" + std::to_string(options_.k);
  }

 private:
  KSafetyOptions options_;
};

}  // namespace qcap

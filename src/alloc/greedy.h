// Greedy first-fit allocation heuristic (Algorithm 1 of the paper).
//
// Query classes are allocated heaviest-first (weight including co-allocated
// updates, times data size). Each class goes to the backend with the least
// "difference" (new bytes it would have to store), updates are pinned per
// ROWA, and backend capacities are scaled up only when every backend is
// already at its scaled limit.
#pragma once

#include "alloc/allocator.h"

namespace qcap {

/// \brief Algorithm 1: polynomial-time first-fit allocation.
///
/// Reproduces the paper's greedy trace exactly (the Appendix A worked
/// example is a unit test): classes are placed heaviest-first by
/// weight × data size, each onto the backend where it adds the fewest new
/// bytes among those with spare scaled capacity (Eq. 15/16), updates are
/// pinned per ROWA (Eq. 10), and capacity is relaxed only when every
/// backend is saturated.
class GreedyAllocator : public Allocator {
 public:
  /// Runs Algorithm 1 on \p cls over \p backends.
  /// \returns an allocation satisfying the validity constraints
  /// (Eq. 8-11), or a Status describing the infeasibility.
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override;
  std::string name() const override { return "greedy"; }
};

}  // namespace qcap

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
///
/// Each iteration pops the heaviest pending class from a heap keyed by
/// (remaining weight x bundle size, push order), scores the class's bundle
/// against every backend in one pass over its words, and places it with
/// the delta update closure, which visits only the update classes on the
/// bits the placement newly set (alloc_internal::PendingQueue,
/// BundleScores, UpdateCloser). Each piece is exact: the allocation is the
/// one a re-sort after every placement, a MissingBytes per backend and a
/// full closure rescan give, bit for bit.
class GreedyAllocator : public Allocator {
 public:
  /// Runs Algorithm 1 on \p cls over \p backends.
  /// \returns an allocation satisfying the validity constraints
  /// (Eq. 8-11), or a Status describing the infeasibility.
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override;
  std::string name() const override { return "greedy"; }
};

namespace alloc_internal {

/// GreedyAllocator::Allocate over an \p index of \p cls the caller already
/// built, for callers that need the index too (MemeticAllocator::Allocate
/// reuses it for the search). \p backends and \p cls must have passed
/// ValidateBackends and Classification::Validate.
Result<Allocation> GreedyAllocate(const Classification& cls,
                                  const ClassificationIndex& index,
                                  const std::vector<BackendSpec>& backends);

}  // namespace alloc_internal

}  // namespace qcap

// Robustness extension (Section 5): how much workload change an allocation
// tolerates, and how to buy tolerance with zero-weight headroom replicas.
//
// The paper's example: in the Figure 2 four-backend allocation, raising
// query class C's weight from 25% to 27% overloads its only backend and
// drops the maximum achievable speedup from 4 to 3.7. An allocation is
// robust when each backend's classes can be (partially) shifted to other
// backends holding the same data; the algorithm adds zero-weight replicas
// of classes whose shiftable headroom is below a required percentage.
#pragma once

#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

/// \brief Re-solves the read-load distribution over a *fixed* placement
/// with the exact LP (minimize scale, Eq. 15, subject to Eq. 9/10), i.e.
/// the best the scheduler could do by shifting weights between replicas.
/// Update pinning is kept as-is.
/// \returns the rebalanced allocation (same placement matrix as
/// \p placement, new read-assign matrix).
Result<Allocation> RebalanceReads(const Classification& cls,
                                  const Allocation& placement,
                                  const std::vector<BackendSpec>& backends);

/// \brief Speedup (Eq. 17-19) after read class \p read_index changes weight to \p new_weight
/// (other classes keep theirs; weights are not re-normalized, matching the
/// paper's example arithmetic).
/// With \p allow_shift false, each backend keeps its assigned share of the
/// class scaled proportionally (no rescheduling); with true, the read load
/// is rebalanced optimally over the existing placement first.
Result<double> PerturbedSpeedup(const Classification& cls,
                                const Allocation& alloc,
                                const std::vector<BackendSpec>& backends,
                                size_t read_index, double new_weight,
                                bool allow_shift);

/// \brief Maximum additional weight of read class \p read_index (absolute, on top
/// of its current weight) that optimal shifting over the current placement
/// absorbs without increasing the allocation's scale beyond
/// max(current scale, 1) + epsilon.
Result<double> WeightTolerance(const Classification& cls,
                               const Allocation& alloc,
                               const std::vector<BackendSpec>& backends,
                               size_t read_index);

/// Options for headroom insertion.
struct RobustnessOptions {
  /// Required tolerable weight increase per read class, as a fraction of
  /// the class's weight (e.g. 0.1 = +10% must be absorbable).
  double required_headroom = 0.10;
};

/// \brief Adds zero-weight replicas (fragments + pinned updates, no read
/// load) of read classes whose tolerance is below the requirement, placing
/// each on the least-loaded backend not yet holding the class, until every
/// class meets the requirement, no placement can improve it, or 64
/// replicas have been added — the paper's Section 5 recipe for buying
/// robustness with storage.
/// \returns the padded allocation; its scale never regresses because the
/// added replicas carry no load. InvalidArgument when \p alloc fails
/// ValidateAllocation: each replica's update closure builds on the rows
/// being closed, which a valid allocation's are.
Result<Allocation> AddRobustnessHeadroom(const Classification& cls,
                                         const Allocation& alloc,
                                         const std::vector<BackendSpec>& backends,
                                         const RobustnessOptions& options = {});

}  // namespace qcap

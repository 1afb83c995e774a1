// Allocator interface and helpers shared by all allocation strategies.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

/// \brief Strategy interface: computes a partial replication of the
/// classified workload onto the given backends.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Computes an allocation. Implementations must return allocations that
  /// pass ValidateAllocation().
  virtual Result<Allocation> Allocate(
      const Classification& cls,
      const std::vector<BackendSpec>& backends) = 0;

  /// Human-readable strategy name, e.g. "greedy".
  virtual std::string name() const = 0;
};

namespace alloc_internal {

/// Places every update class whose fragments overlap backend \p b's current
/// fragment set fully onto \p b (fragments + pinned assignment, Eq. 10),
/// iterating to a fixpoint since adding an update's fragments can create
/// new overlaps. Returns the total update weight newly added to \p b.
double CloseUpdatesOnBackend(const Classification& cls, size_t b,
                             Allocation* alloc);

/// Index-accelerated CloseUpdatesOnBackend: identical fixpoint order (each
/// round tests against a snapshot of the row taken at round start, ascending
/// update index) so the accumulated weight is bitwise identical to the
/// unindexed version, but overlap tests are word-parallel and nothing is
/// heap-allocated beyond \p row_scratch, which callers size once and reuse.
double CloseUpdatesOnBackend(const Classification& cls,
                             const ClassificationIndex& index, size_t b,
                             Allocation* alloc, DenseBitset* row_scratch);

/// Runs CloseUpdatesOnBackend for every backend.
void CloseUpdatesEverywhere(const Classification& cls, Allocation* alloc);

/// Ensures data completeness: every fragment not yet stored anywhere is
/// placed on the backend currently storing the fewest bytes that would not
/// pick up new update obligations by storing it (any backend if none
/// qualifies, followed by an update-closure pass).
void PlaceOrphanFragments(const Classification& cls, Allocation* alloc);

/// Ordered requeue for the greedy allocators' pending queue. The live queue
/// is (*queue)[head, end), sorted so that no element is \p before an
/// earlier one; callers pop by advancing head. \p item goes in at the upper
/// bound of its key, after every element whose key is not lower, so equal
/// keys keep FIFO order. That is where std::stable_sort would put \p item
/// appended to the sorted queue, so a loop in which only re-pushed items
/// change key gets the paper's re-sort order without re-sorting.
template <typename T, typename Before>
void RequeueOrdered(std::vector<T>* queue, size_t head, const T& item,
                    Before before) {
  const auto first = queue->begin() + static_cast<std::ptrdiff_t>(head);
  queue->insert(std::upper_bound(first, queue->end(), item, before), item);
}

}  // namespace alloc_internal
}  // namespace qcap

#include "physical/physical_allocator.h"

#include <algorithm>

#include "solver/hungarian.h"

namespace qcap {

Result<TransitionPlan> PhysicalAllocator::Plan(
    const Allocation& old_alloc, const Allocation& new_alloc,
    const FragmentCatalog& catalog, bool needs_fragmentation) const {
  if (old_alloc.num_fragments() != new_alloc.num_fragments() ||
      new_alloc.num_fragments() != catalog.size()) {
    return Status::InvalidArgument(
        "old and new allocations must share one fragment catalog");
  }
  const size_t new_n = new_alloc.num_backends();
  const size_t old_n = old_alloc.num_backends();
  if (new_n == 0) {
    return Status::InvalidArgument("new allocation has no backends");
  }
  const size_t n = std::max(new_n, old_n);

  // Eq. 27: cost(v,u) = bytes of fragments backend v needs that node u
  // lacks, read straight off the placement rows. Rows/columns beyond the
  // real counts are empty virtual backends: a virtual new backend costs 0
  // (node u is decommissioned), a fresh node lacks everything.
  std::vector<double> cost(n * n, 0.0);
  for (size_t v = 0; v < new_n; ++v) {
    const ConstBitSpan want = new_alloc.RowBits(v);
    for (size_t u = 0; u < n; ++u) {
      cost[v * n + u] = catalog.DifferenceBytes(
          want, u < old_n ? old_alloc.RowBits(u) : ConstBitSpan());
    }
  }

  QCAP_ASSIGN_OR_RETURN(AssignmentResult matching, SolveAssignment(cost, n));

  TransitionPlan plan;
  plan.source_of.assign(new_n, -1);
  plan.move_bytes.assign(new_n, 0.0);
  for (size_t v = 0; v < n; ++v) {
    const size_t u = matching.assignment[v];
    if (v < new_n) {
      plan.source_of[v] = u < old_n ? static_cast<int>(u) : -1;
      const double bytes = cost[v * n + u];
      plan.move_bytes[v] = bytes;
      plan.total_bytes += bytes;
      plan.duration_seconds =
          std::max(plan.duration_seconds,
                   cost_model_.BackendSeconds(bytes, needs_fragmentation));
    } else if (u < old_n) {
      plan.decommissioned.push_back(u);
    }
  }
  std::sort(plan.decommissioned.begin(), plan.decommissioned.end());
  return plan;
}

Result<TransitionPlan> PhysicalAllocator::InitialLoad(
    const Allocation& new_alloc, const FragmentCatalog& catalog,
    bool needs_fragmentation) const {
  const Allocation empty(new_alloc.num_backends(), new_alloc.num_fragments(),
                         new_alloc.num_reads(), new_alloc.num_updates());
  return Plan(empty, new_alloc, catalog, needs_fragmentation);
}

}  // namespace qcap

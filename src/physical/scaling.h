// Allocation merging (Section 5): combines per-segment allocations of a
// diurnal workload into one placement that serves every segment without
// reallocation.
#pragma once

#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "workload/fragment.h"

namespace qcap {

/// Merges per-segment allocations (all over the same fragment catalog and
/// backend count) into a single placement: segment i's backends are aligned
/// to segment 0's via min-transfer matching, then placements are unioned.
/// Read/update assignments of the result are taken from segment 0; the
/// runtime scheduler re-balances within the (larger) merged placement.
Result<Allocation> MergeAllocations(const std::vector<Allocation>& segments,
                                    const FragmentCatalog& catalog);

}  // namespace qcap

#include "physical/scaling.h"

#include "solver/hungarian.h"

namespace qcap {

Result<Allocation> MergeAllocations(const std::vector<Allocation>& segments,
                                    const FragmentCatalog& catalog) {
  if (segments.empty()) {
    return Status::InvalidArgument("no segment allocations to merge");
  }
  const size_t n = segments[0].num_backends();
  for (const auto& s : segments) {
    if (s.num_backends() != n || s.num_fragments() != catalog.size()) {
      return Status::InvalidArgument(
          "segment allocations must share backend count and catalog");
    }
  }

  Allocation merged = segments[0];
  std::vector<double> cost(n * n);
  for (size_t s = 1; s < segments.size(); ++s) {
    // Align segment s's backends to the merged placement: cost of hosting
    // segment-backend v on merged-backend u is the bytes u still lacks.
    for (size_t v = 0; v < n; ++v) {
      for (size_t u = 0; u < n; ++u) {
        cost[v * n + u] = catalog.DifferenceBytes(segments[s].RowBits(v),
                                                  merged.RowBits(u));
      }
    }
    QCAP_ASSIGN_OR_RETURN(AssignmentResult matching, SolveAssignment(cost, n));
    for (size_t v = 0; v < n; ++v) {
      merged.PlaceBits(matching.assignment[v], segments[s].RowBits(v));
    }
  }
  return merged;
}

}  // namespace qcap

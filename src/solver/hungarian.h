// Hungarian algorithm (Kuhn-Munkres) for the assignment problem.
//
// Used by the physical allocator (Section 3.4) to find the cost-minimal
// perfect matching between the backends of a newly computed allocation and
// the currently installed allocation, in O(n^3).
#pragma once

#include <span>
#include <vector>

#include "common/status.h"

namespace qcap {

/// Result of an assignment: `assignment[row] = column` plus the total cost.
struct AssignmentResult {
  std::vector<size_t> assignment;
  double total_cost = 0.0;
};

/// Solves the min-cost perfect assignment for the square \p cost matrix
/// (cost[i][j] = cost of assigning row i to column j). Fails if the matrix
/// is empty, not square or has a non-finite cell.
Result<AssignmentResult> SolveAssignment(
    const std::vector<std::vector<double>>& cost);

/// Same for an \p n x \p n matrix stored row-major in \p cost
/// (cost[i * n + j]); \p cost must hold exactly n * n cells.
Result<AssignmentResult> SolveAssignment(std::span<const double> cost,
                                         size_t n);

}  // namespace qcap

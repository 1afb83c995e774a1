// Branch-and-bound solver for mixed binary/linear programs, built on the
// two-phase simplex. Sufficient for the optimal-allocation MILP of
// Appendix B at the problem sizes the paper evaluates (<= 7 backends).
#pragma once

#include <vector>

#include "solver/simplex.h"

namespace qcap {

/// A mixed-integer LP: the embedded LP plus a list of variables restricted
/// to {0, 1}. (0 <= x <= 1 bounds are added automatically.)
struct MilpProblem {
  LinearProgram lp;
  std::vector<size_t> binary_vars;
  /// Optional branching priority per binary variable (parallel to
  /// binary_vars; empty = uniform). Higher priority classes are branched
  /// first; within a class the most fractional variable wins.
  std::vector<int> branch_priority;
};

/// Options for branch and bound.
struct MilpOptions {
  /// Maximum number of branch-and-bound nodes to explore.
  size_t max_nodes = 100000;
};

/// Solves \p problem to optimality by depth-first branch and bound with
/// best-bound pruning. Returns kInfeasible if no integral solution exists,
/// kResourceExhausted if the node limit is hit before proving optimality
/// (in which case no incumbent is returned even if one was found —
/// callers needing anytime behaviour should raise max_nodes).
Result<LpSolution> SolveMilp(const MilpProblem& problem,
                             const MilpOptions& options = {});

}  // namespace qcap

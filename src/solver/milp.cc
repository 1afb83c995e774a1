#include "solver/milp.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>

namespace qcap {

namespace {

/// Integrality tolerance.
constexpr double kIntTolerance = 1e-6;

struct Node {
  /// Fixings: var -> 0 or 1. Applied as equality constraints.
  std::vector<std::pair<size_t, int>> fixings;
  double bound = -std::numeric_limits<double>::infinity();
};

}  // namespace

Result<LpSolution> SolveMilp(const MilpProblem& problem,
                             const MilpOptions& options) {
  // Base LP with 0 <= x <= 1 for binaries.
  LinearProgram base = problem.lp;
  for (size_t v : problem.binary_vars) {
    if (v >= base.num_vars) {
      return Status::InvalidArgument("binary var index out of range");
    }
    base.AddVarBound(v, Relation::kLessEqual, 1.0);
  }

  std::optional<LpSolution> incumbent;
  double incumbent_obj = std::numeric_limits<double>::infinity();

  std::vector<Node> stack;
  stack.push_back(Node{});
  size_t explored = 0;

  while (!stack.empty()) {
    if (++explored > options.max_nodes) {
      return Status::ResourceExhausted("branch-and-bound node limit reached");
    }
    Node node = std::move(stack.back());
    stack.pop_back();

    // Build and solve this node's relaxation.
    LinearProgram lp = base;
    for (const auto& [var, value] : node.fixings) {
      lp.AddVarBound(var, Relation::kEqual, static_cast<double>(value));
    }
    auto res = SolveLp(lp);
    if (!res.ok()) {
      if (res.status().IsInfeasible()) continue;  // Prune.
      return res.status();
    }
    const LpSolution& relax = res.value();
    if (relax.objective >= incumbent_obj - kIntTolerance) {
      continue;  // Bound: cannot improve the incumbent.
    }

    // Branching variable: highest priority class first, most fractional
    // within it.
    int branch_var = -1;
    int best_priority = std::numeric_limits<int>::min();
    double most_fractional = kIntTolerance;
    const bool has_priority =
        problem.branch_priority.size() == problem.binary_vars.size();
    for (size_t idx = 0; idx < problem.binary_vars.size(); ++idx) {
      const size_t v = problem.binary_vars[idx];
      const double x = relax.x[v];
      const double frac = std::min(x - std::floor(x), std::ceil(x) - x);
      if (frac <= kIntTolerance) continue;
      const int priority = has_priority ? problem.branch_priority[idx] : 0;
      if (priority > best_priority ||
          (priority == best_priority && frac > most_fractional)) {
        best_priority = priority;
        most_fractional = frac;
        branch_var = static_cast<int>(v);
      }
    }

    if (branch_var < 0) {
      // Integral: new incumbent.
      if (relax.objective < incumbent_obj) {
        incumbent_obj = relax.objective;
        incumbent = relax;
        // Round binaries exactly.
        for (size_t v : problem.binary_vars) {
          incumbent->x[v] = std::round(incumbent->x[v]);
        }
      }
      continue;
    }

    // Depth-first: explore the "round to nearest" branch first.
    const double xval = relax.x[static_cast<size_t>(branch_var)];
    const int near = xval >= 0.5 ? 1 : 0;
    Node far_node = node;
    far_node.fixings.emplace_back(static_cast<size_t>(branch_var), 1 - near);
    Node near_node = std::move(node);
    near_node.fixings.emplace_back(static_cast<size_t>(branch_var), near);
    stack.push_back(std::move(far_node));
    stack.push_back(std::move(near_node));
  }

  if (!incumbent) {
    return Status::Infeasible("no integral solution exists");
  }
  return *incumbent;
}

}  // namespace qcap

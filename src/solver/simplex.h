// Dense two-phase primal simplex solver.
//
// Built from scratch because the optimal allocation of Appendix B is a
// linear/integer program and no external solver is assumed. Handles
// minimization problems with <=, >=, and = constraints over non-negative
// variables, using Bland's rule to guarantee termination.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/status.h"

namespace qcap {

/// Constraint relation.
enum class Relation { kLessEqual, kGreaterEqual, kEqual };

/// One linear constraint: coeffs · x (rel) rhs.
struct LinearConstraint {
  std::vector<double> coeffs;  ///< Dense, length = num_vars (missing = 0).
  Relation rel = Relation::kLessEqual;
  double rhs = 0.0;
};

/// \brief A linear program: minimize objective · x subject to constraints,
/// x >= 0.
struct LinearProgram {
  size_t num_vars = 0;
  std::vector<double> objective;  ///< Dense, length num_vars; minimized.
  std::vector<LinearConstraint> constraints;

  /// Appends a constraint; coefficients shorter than num_vars are
  /// zero-extended.
  void AddConstraint(std::vector<double> coeffs, Relation rel, double rhs);
  /// Appends the single-variable constraint x[var] (rel) rhs.
  void AddVarBound(size_t var, Relation rel, double rhs);
};

/// Solution of an LP.
struct LpSolution {
  std::vector<double> x;
  double objective = 0.0;
};

/// Solves \p lp with pivot tolerance 1e-9. Returns kInfeasible /
/// kUnbounded / kResourceExhausted (after 200000 pivots over both phases)
/// on the corresponding failure.
Result<LpSolution> SolveLp(const LinearProgram& lp);

}  // namespace qcap

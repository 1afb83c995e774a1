#include "solver/simplex.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qcap {

void LinearProgram::AddConstraint(std::vector<double> coeffs, Relation rel,
                                  double rhs) {
  coeffs.resize(num_vars, 0.0);
  constraints.push_back(LinearConstraint{std::move(coeffs), rel, rhs});
}

void LinearProgram::AddVarBound(size_t var, Relation rel, double rhs) {
  std::vector<double> coeffs(num_vars, 0.0);
  coeffs[var] = 1.0;
  constraints.push_back(LinearConstraint{std::move(coeffs), rel, rhs});
}

namespace {

/// Pivot limit over both phases.
constexpr size_t kMaxIterations = 200000;
/// Numerical tolerance for reduced costs, pivots and ratio ties.
constexpr double kTolerance = 1e-9;

/// Dense simplex tableau: rows are constraints, the last row is the
/// objective (reduced costs), the last column is the RHS.
class Tableau {
 public:
  Tableau(size_t rows, size_t cols)
      : rows_(rows), cols_(cols), a_((rows + 1) * (cols + 1), 0.0),
        basis_(rows, -1) {}

  double& at(size_t r, size_t c) { return a_[r * (cols_ + 1) + c]; }
  double at(size_t r, size_t c) const { return a_[r * (cols_ + 1) + c]; }
  double& rhs(size_t r) { return at(r, cols_); }
  double& obj(size_t c) { return at(rows_, c); }
  double obj_value() const { return a_[rows_ * (cols_ + 1) + cols_]; }

  size_t rows() const { return rows_; }
  size_t cols() const { return cols_; }
  int basis(size_t r) const { return basis_[r]; }
  void set_basis(size_t r, int var) { basis_[r] = var; }

  /// Gauss-Jordan pivot on (prow, pcol); pcol enters the basis.
  void Pivot(size_t prow, size_t pcol) {
    const double pivot = at(prow, pcol);
    const double inv = 1.0 / pivot;
    for (size_t c = 0; c <= cols_; ++c) at(prow, c) *= inv;
    at(prow, pcol) = 1.0;  // Exact.
    for (size_t r = 0; r <= rows_; ++r) {
      if (r == prow) continue;
      const double factor = at(r, pcol);
      if (factor == 0.0) continue;
      for (size_t c = 0; c <= cols_; ++c) {
        at(r, c) -= factor * at(prow, c);
      }
      at(r, pcol) = 0.0;  // Exact.
    }
    basis_[prow] = static_cast<int>(pcol);
  }

 private:
  size_t rows_, cols_;
  std::vector<double> a_;
  std::vector<int> basis_;
};

enum class IterateResult { kOptimal, kUnbounded, kIterLimit };

/// Runs simplex iterations until optimality. Uses Dantzig's rule and falls
/// back to Bland's rule (guaranteed anti-cycling) after `bland_after`
/// iterations.
IterateResult Iterate(Tableau* t, size_t* iterations,
                      const std::vector<bool>& usable) {
  const size_t bland_after = kMaxIterations / 2;
  while (*iterations < kMaxIterations) {
    // Entering variable.
    int pcol = -1;
    if (*iterations < bland_after) {
      double best = -kTolerance;
      for (size_t c = 0; c < t->cols(); ++c) {
        if (!usable[c]) continue;
        if (t->obj(c) < best) {
          best = t->obj(c);
          pcol = static_cast<int>(c);
        }
      }
    } else {
      for (size_t c = 0; c < t->cols(); ++c) {
        if (usable[c] && t->obj(c) < -kTolerance) {
          pcol = static_cast<int>(c);
          break;
        }
      }
    }
    if (pcol < 0) return IterateResult::kOptimal;

    // Leaving variable: minimum ratio test, Bland tie-break.
    int prow = -1;
    double best_ratio = std::numeric_limits<double>::infinity();
    for (size_t r = 0; r < t->rows(); ++r) {
      const double coef = t->at(r, static_cast<size_t>(pcol));
      if (coef > kTolerance) {
        const double ratio = t->rhs(r) / coef;
        if (ratio < best_ratio - kTolerance ||
            (ratio < best_ratio + kTolerance && prow >= 0 &&
             t->basis(r) < t->basis(static_cast<size_t>(prow)))) {
          best_ratio = ratio;
          prow = static_cast<int>(r);
        }
      }
    }
    if (prow < 0) return IterateResult::kUnbounded;

    t->Pivot(static_cast<size_t>(prow), static_cast<size_t>(pcol));
    ++*iterations;
  }
  return IterateResult::kIterLimit;
}

}  // namespace

Result<LpSolution> SolveLp(const LinearProgram& lp) {
  if (lp.num_vars == 0) {
    return Status::InvalidArgument("LP has no variables");
  }
  if (lp.objective.size() != lp.num_vars) {
    return Status::InvalidArgument("objective length != num_vars");
  }
  for (const auto& c : lp.constraints) {
    if (c.coeffs.size() != lp.num_vars) {
      return Status::InvalidArgument("constraint length != num_vars");
    }
  }

  const size_t m = lp.constraints.size();
  const size_t n = lp.num_vars;

  // Count slack/surplus and artificial columns. Constraints are normalized
  // to non-negative RHS first.
  size_t num_slack = 0;
  size_t num_artificial = 0;
  std::vector<LinearConstraint> cons = lp.constraints;
  for (auto& c : cons) {
    if (c.rhs < 0.0) {
      for (auto& v : c.coeffs) v = -v;
      c.rhs = -c.rhs;
      if (c.rel == Relation::kLessEqual) {
        c.rel = Relation::kGreaterEqual;
      } else if (c.rel == Relation::kGreaterEqual) {
        c.rel = Relation::kLessEqual;
      }
    }
    if (c.rel == Relation::kLessEqual) {
      ++num_slack;
      // Slack is a valid initial basic variable; no artificial needed.
    } else if (c.rel == Relation::kGreaterEqual) {
      ++num_slack;  // Surplus.
      ++num_artificial;
    } else {
      ++num_artificial;
    }
  }

  const size_t total = n + num_slack + num_artificial;
  Tableau t(m, total);

  size_t slack_cursor = n;
  size_t art_cursor = n + num_slack;
  const size_t art_begin = n + num_slack;

  for (size_t r = 0; r < m; ++r) {
    const auto& c = cons[r];
    for (size_t j = 0; j < n; ++j) t.at(r, j) = c.coeffs[j];
    t.rhs(r) = c.rhs;
    if (c.rel == Relation::kLessEqual) {
      t.at(r, slack_cursor) = 1.0;
      t.set_basis(r, static_cast<int>(slack_cursor));
      ++slack_cursor;
    } else if (c.rel == Relation::kGreaterEqual) {
      t.at(r, slack_cursor) = -1.0;
      ++slack_cursor;
      t.at(r, art_cursor) = 1.0;
      t.set_basis(r, static_cast<int>(art_cursor));
      ++art_cursor;
    } else {
      t.at(r, art_cursor) = 1.0;
      t.set_basis(r, static_cast<int>(art_cursor));
      ++art_cursor;
    }
  }

  size_t iterations = 0;
  std::vector<bool> usable(total, true);

  // Phase 1: minimize the sum of artificial variables.
  if (num_artificial > 0) {
    for (size_t c = 0; c < total; ++c) t.obj(c) = 0.0;
    for (size_t c = art_begin; c < total; ++c) t.obj(c) = 1.0;
    t.obj(total) = 0.0;
    // Price out the artificial basis (reduced costs of basic vars must be 0).
    for (size_t r = 0; r < m; ++r) {
      const int bv = t.basis(r);
      if (bv >= static_cast<int>(art_begin)) {
        for (size_t c = 0; c <= total; ++c) {
          t.obj(c) -= t.at(r, c);
        }
      }
    }
    IterateResult res = Iterate(&t, &iterations, usable);
    if (res == IterateResult::kIterLimit) {
      return Status::ResourceExhausted("simplex phase 1 iteration limit");
    }
    // Phase-1 objective value is -obj_value (tableau stores negated).
    const double infeasibility = -t.obj_value();
    if (std::abs(infeasibility) > 1e-6) {
      return Status::Infeasible("LP infeasible (phase-1 objective " +
                                std::to_string(infeasibility) + ")");
    }
    // Drive remaining artificial variables out of the basis.
    for (size_t r = 0; r < m; ++r) {
      if (t.basis(r) >= static_cast<int>(art_begin)) {
        bool pivoted = false;
        for (size_t c = 0; c < art_begin; ++c) {
          if (std::abs(t.at(r, c)) > 1e-7) {
            t.Pivot(r, c);
            pivoted = true;
            break;
          }
        }
        if (!pivoted) {
          // Redundant row; the artificial stays basic at value 0, which is
          // harmless as long as its column can never re-enter.
        }
      }
    }
    for (size_t c = art_begin; c < total; ++c) usable[c] = false;
  }

  // Phase 2: minimize the true objective.
  for (size_t c = 0; c <= total; ++c) t.obj(c) = 0.0;
  for (size_t j = 0; j < n; ++j) t.obj(j) = lp.objective[j];
  for (size_t r = 0; r < m; ++r) {
    const int bv = t.basis(r);
    if (bv >= 0 && bv < static_cast<int>(n) && lp.objective[bv] != 0.0) {
      const double cb = lp.objective[bv];
      for (size_t c = 0; c <= total; ++c) {
        t.obj(c) -= cb * t.at(r, c);
      }
    }
  }
  IterateResult res = Iterate(&t, &iterations, usable);
  if (res == IterateResult::kIterLimit) {
    return Status::ResourceExhausted("simplex phase 2 iteration limit");
  }
  if (res == IterateResult::kUnbounded) {
    return Status::Unbounded("LP is unbounded");
  }

  LpSolution sol;
  sol.x.assign(n, 0.0);
  for (size_t r = 0; r < m; ++r) {
    const int bv = t.basis(r);
    if (bv >= 0 && bv < static_cast<int>(n)) {
      sol.x[static_cast<size_t>(bv)] = t.rhs(r);
    }
  }
  sol.objective = -t.obj_value();
  return sol;
}

}  // namespace qcap

#include "alloc/optimal.h"

#include <cmath>

#include "alloc/greedy.h"
#include "model/metrics.h"

namespace qcap {

namespace {

/// Tolerance added to the optimal scale in the second stage.
constexpr double kScaleSlack = 1e-6;

/// Variable layout of the Appendix B program.
struct Layout {
  size_t n, F, R, U;
  size_t a0, lq0, lu0, hq0, hu0, s;

  explicit Layout(size_t n_, size_t F_, size_t R_, size_t U_)
      : n(n_), F(F_), R(R_), U(U_) {
    a0 = 0;
    lq0 = a0 + n * F;
    lu0 = lq0 + n * R;
    hq0 = lu0 + n * U;
    hu0 = hq0 + n * R;
    s = hu0 + n * U;
  }
  size_t total() const { return s + 1; }
  size_t a(size_t i, size_t j) const { return a0 + i * F + j; }
  size_t lq(size_t i, size_t k) const { return lq0 + i * R + k; }
  size_t lu(size_t i, size_t k) const { return lu0 + i * U + k; }
  size_t hq(size_t i, size_t k) const { return hq0 + i * R + k; }
  size_t hu(size_t i, size_t k) const { return hu0 + i * U + k; }
};

/// Builds the shared constraint system (everything except the objective and
/// the optional scale cap).
MilpProblem BuildProgram(const Classification& cls,
                         const std::vector<BackendSpec>& backends,
                         const Layout& lay) {
  MilpProblem prob;
  LinearProgram& lp = prob.lp;
  lp.num_vars = lay.total();
  lp.objective.assign(lp.num_vars, 0.0);

  auto coeffs = [&]() { return std::vector<double>(lp.num_vars, 0.0); };

  // Eq. 38: read classes fully assigned.
  for (size_t k = 0; k < lay.R; ++k) {
    auto c = coeffs();
    for (size_t i = 0; i < lay.n; ++i) c[lay.lq(i, k)] = 1.0;
    lp.AddConstraint(std::move(c), Relation::kEqual, cls.reads[k].weight);
  }
  // Eq. 39: update classes assigned at least once.
  for (size_t k = 0; k < lay.U; ++k) {
    auto c = coeffs();
    for (size_t i = 0; i < lay.n; ++i) c[lay.lu(i, k)] = 1.0;
    lp.AddConstraint(std::move(c), Relation::kGreaterEqual,
                     cls.updates[k].weight);
  }
  // Eq. 40 linking: lq <= weight * hq.
  for (size_t i = 0; i < lay.n; ++i) {
    for (size_t k = 0; k < lay.R; ++k) {
      auto c = coeffs();
      c[lay.lq(i, k)] = 1.0;
      c[lay.hq(i, k)] = -cls.reads[k].weight;
      lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
    }
  }
  // Eq. 41: hu forced by overlapping allocated reads.
  for (size_t k = 0; k < lay.U; ++k) {
    for (size_t m = 0; m < lay.R; ++m) {
      if (!Intersects(cls.updates[k].fragments, cls.reads[m].fragments)) {
        continue;
      }
      for (size_t i = 0; i < lay.n; ++i) {
        auto c = coeffs();
        c[lay.hq(i, m)] = 1.0;
        c[lay.hu(i, k)] = -1.0;
        lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
      }
    }
  }
  // Eq. 42: lu = weight * hu.
  for (size_t i = 0; i < lay.n; ++i) {
    for (size_t k = 0; k < lay.U; ++k) {
      auto c = coeffs();
      c[lay.lu(i, k)] = 1.0;
      c[lay.hu(i, k)] = -cls.updates[k].weight;
      lp.AddConstraint(std::move(c), Relation::kEqual, 0.0);
    }
  }
  // Eq. 43: capacity with scale.
  for (size_t i = 0; i < lay.n; ++i) {
    auto c = coeffs();
    for (size_t k = 0; k < lay.R; ++k) c[lay.lq(i, k)] = 1.0;
    for (size_t k = 0; k < lay.U; ++k) c[lay.lu(i, k)] = 1.0;
    c[lay.s] = -backends[i].relative_load;
    lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
  }
  // Eq. 44/45: fragment placement follows class allocation. The paper
  // states the aggregated form (sum over the class's fragments >= |C|*h);
  // we emit the element-wise disaggregation a_ij >= h_ik, which is
  // equivalent on binaries and has a far tighter LP relaxation (essential
  // for the from-scratch branch-and-bound).
  for (size_t i = 0; i < lay.n; ++i) {
    for (size_t k = 0; k < lay.R; ++k) {
      for (FragmentId j : cls.reads[k].fragments) {
        auto c = coeffs();
        c[lay.hq(i, k)] = 1.0;
        c[lay.a(i, j)] = -1.0;
        lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
      }
    }
    for (size_t k = 0; k < lay.U; ++k) {
      for (FragmentId j : cls.updates[k].fragments) {
        auto c = coeffs();
        c[lay.hu(i, k)] = 1.0;
        c[lay.a(i, j)] = -1.0;
        lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
      }
    }
  }
  // Eq. 10 tightening: storing any fragment of an update class forces the
  // class (ROWA): a[i][j] <= hu[i][k] for j in Ck.
  for (size_t k = 0; k < lay.U; ++k) {
    for (FragmentId j : cls.updates[k].fragments) {
      for (size_t i = 0; i < lay.n; ++i) {
        auto c = coeffs();
        c[lay.a(i, j)] = 1.0;
        c[lay.hu(i, k)] = -1.0;
        lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
      }
    }
  }
  // Data completeness: every fragment stored somewhere.
  for (size_t j = 0; j < lay.F; ++j) {
    auto c = coeffs();
    for (size_t i = 0; i < lay.n; ++i) c[lay.a(i, j)] = 1.0;
    lp.AddConstraint(std::move(c), Relation::kGreaterEqual, 1.0);
  }
  // scale >= 1.
  lp.AddVarBound(lay.s, Relation::kGreaterEqual, 1.0);

  // Binaries: a, hq, hu. The h variables are the real decisions (they force
  // the a's via the linking constraints), so they get branching priority.
  for (size_t i = 0; i < lay.n; ++i) {
    for (size_t j = 0; j < lay.F; ++j) {
      prob.binary_vars.push_back(lay.a(i, j));
      prob.branch_priority.push_back(0);
    }
    for (size_t k = 0; k < lay.R; ++k) {
      prob.binary_vars.push_back(lay.hq(i, k));
      prob.branch_priority.push_back(1);
    }
    for (size_t k = 0; k < lay.U; ++k) {
      prob.binary_vars.push_back(lay.hu(i, k));
      prob.branch_priority.push_back(1);
    }
  }
  return prob;
}

}  // namespace

Result<Allocation> OptimalAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());

  const Layout lay(backends.size(), cls.catalog.size(), cls.reads.size(),
                   cls.updates.size());

  // Heuristic warm start: valid upper bounds on scale and storage.
  QCAP_ASSIGN_OR_RETURN(Allocation seed,
                        GreedyAllocator().Allocate(cls, backends));
  const double greedy_scale = Scale(seed, backends);
  double greedy_bytes = 0.0;
  for (size_t b = 0; b < seed.num_backends(); ++b) {
    greedy_bytes += seed.BackendBytes(b, cls.catalog);
  }
  bool homogeneous = true;
  for (const auto& b : backends) {
    if (std::abs(b.relative_load - backends[0].relative_load) > 1e-12) {
      homogeneous = false;
      break;
    }
  }

  auto decorate = [&](MilpProblem* prob) {
    prob->lp.AddVarBound(lay.s, Relation::kLessEqual, greedy_scale + 1e-9);
    if (homogeneous) {
      // Lexicographic pruning: weight the placement row of each backend and
      // require non-increasing row scores. Not a total order over placements
      // but removes the bulk of the n! permutation symmetry.
      for (size_t i = 0; i + 1 < lay.n; ++i) {
        std::vector<double> c(prob->lp.num_vars, 0.0);
        for (size_t j = 0; j < lay.F; ++j) {
          const double w = static_cast<double>(lay.F - j);
          c[lay.a(i, j)] -= w;
          c[lay.a(i + 1, j)] += w;
        }
        prob->lp.AddConstraint(std::move(c), Relation::kLessEqual, 0.0);
      }
    }
  };

  MilpProblem stage1 = BuildProgram(cls, backends, lay);
  stage1.lp.objective[lay.s] = 1.0;
  decorate(&stage1);
  QCAP_ASSIGN_OR_RETURN(LpSolution sol1, SolveMilp(stage1, options_.milp));
  const double opt_scale = sol1.x[lay.s];
  last_scale_ = opt_scale;

  LpSolution final_sol = sol1;
  if (!options_.scale_only) {
    // Sizes are normalized to fractions of the database so the program's
    // coefficients stay well-scaled for the dense simplex.
    const double total_bytes = std::max(cls.catalog.TotalBytes(), 1.0);
    MilpProblem stage2 = BuildProgram(cls, backends, lay);
    for (size_t i = 0; i < lay.n; ++i) {
      for (size_t j = 0; j < lay.F; ++j) {
        stage2.lp.objective[lay.a(i, j)] =
            cls.catalog.Get(static_cast<FragmentId>(j)).size_bytes /
            total_bytes;
      }
    }
    decorate(&stage2);
    stage2.lp.AddVarBound(lay.s, Relation::kLessEqual, opt_scale + kScaleSlack);
    if (greedy_bytes > 0.0) {
      std::vector<double> c(stage2.lp.num_vars, 0.0);
      for (size_t i = 0; i < lay.n; ++i) {
        for (size_t j = 0; j < lay.F; ++j) {
          c[lay.a(i, j)] =
              cls.catalog.Get(static_cast<FragmentId>(j)).size_bytes /
              total_bytes;
        }
      }
      stage2.lp.AddConstraint(std::move(c), Relation::kLessEqual,
                              greedy_bytes / total_bytes + 1e-9);
    }
    QCAP_ASSIGN_OR_RETURN(final_sol, SolveMilp(stage2, options_.milp));
  }

  Allocation alloc(lay.n, lay.F, lay.R, lay.U);
  for (size_t i = 0; i < lay.n; ++i) {
    for (size_t j = 0; j < lay.F; ++j) {
      if (final_sol.x[lay.a(i, j)] > 0.5) {
        alloc.Place(i, static_cast<FragmentId>(j));
      }
    }
    for (size_t k = 0; k < lay.R; ++k) {
      const double v = final_sol.x[lay.lq(i, k)];
      if (v > 1e-12) alloc.set_read_assign(i, k, v);
    }
    for (size_t k = 0; k < lay.U; ++k) {
      const double v = final_sol.x[lay.lu(i, k)];
      if (v > 1e-12) alloc.set_update_assign(i, k, v);
    }
  }
  return alloc;
}

}  // namespace qcap

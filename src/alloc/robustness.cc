#include "alloc/robustness.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "alloc/allocator.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "solver/simplex.h"

namespace qcap {

namespace {

/// Safety cap on the replicas AddRobustnessHeadroom adds.
constexpr size_t kMaxAddedReplicas = 64;

/// Builds the read-rebalancing LP over a fixed placement:
/// variables lq_(b,r) for capable pairs plus the scale s (last variable);
/// minimize s subject to full assignment and per-backend capacity
/// (update pinning enters as a constant per backend).
struct RebalanceProgram {
  LinearProgram lp;
  /// Variable index of lq for (backend, read) or SIZE_MAX if not capable.
  std::vector<std::vector<size_t>> var;
  size_t s_var = 0;
};

RebalanceProgram BuildRebalance(const Classification& cls,
                                const Allocation& placement,
                                const std::vector<BackendSpec>& backends,
                                const std::vector<double>& read_weights) {
  const size_t n = backends.size();
  RebalanceProgram prog;
  prog.var.assign(n, std::vector<size_t>(cls.reads.size(), SIZE_MAX));
  size_t num_vars = 0;
  for (size_t b = 0; b < n; ++b) {
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (placement.HoldsAll(b, cls.reads[r].fragments)) {
        prog.var[b][r] = num_vars++;
      }
    }
  }
  prog.s_var = num_vars++;
  prog.lp.num_vars = num_vars;
  prog.lp.objective.assign(num_vars, 0.0);
  prog.lp.objective[prog.s_var] = 1.0;

  // Full assignment per read class.
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    std::vector<double> c(num_vars, 0.0);
    bool any = false;
    for (size_t b = 0; b < n; ++b) {
      if (prog.var[b][r] != SIZE_MAX) {
        c[prog.var[b][r]] = 1.0;
        any = true;
      }
    }
    if (any) {
      prog.lp.AddConstraint(std::move(c), Relation::kEqual, read_weights[r]);
    }
  }
  // Capacity: reads + pinned updates <= s * load.
  for (size_t b = 0; b < n; ++b) {
    std::vector<double> c(num_vars, 0.0);
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (prog.var[b][r] != SIZE_MAX) c[prog.var[b][r]] = 1.0;
    }
    c[prog.s_var] = -backends[b].relative_load;
    prog.lp.AddConstraint(std::move(c), Relation::kLessEqual,
                          -placement.AssignedUpdateLoad(b));
  }
  prog.lp.AddVarBound(prog.s_var, Relation::kGreaterEqual, 1.0);
  return prog;
}

Allocation WithReadAssignments(const Classification& cls,
                               const Allocation& placement,
                               const RebalanceProgram& prog,
                               const LpSolution& sol) {
  Allocation out = placement;
  for (size_t b = 0; b < placement.num_backends(); ++b) {
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      const size_t v = prog.var[b][r];
      out.set_read_assign(b, r, v == SIZE_MAX ? 0.0 : sol.x[v]);
    }
  }
  return out;
}

}  // namespace

Result<Allocation> RebalanceReads(const Classification& cls,
                                  const Allocation& placement,
                                  const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  std::vector<double> weights;
  weights.reserve(cls.reads.size());
  for (const auto& r : cls.reads) weights.push_back(r.weight);
  RebalanceProgram prog = BuildRebalance(cls, placement, backends, weights);
  QCAP_ASSIGN_OR_RETURN(LpSolution sol, SolveLp(prog.lp));
  return WithReadAssignments(cls, placement, prog, sol);
}

Result<double> PerturbedSpeedup(const Classification& cls,
                                const Allocation& alloc,
                                const std::vector<BackendSpec>& backends,
                                size_t read_index, double new_weight,
                                bool allow_shift) {
  if (read_index >= cls.reads.size()) {
    return Status::InvalidArgument("read class index out of range");
  }
  if (new_weight < 0.0) {
    return Status::InvalidArgument("weight must be non-negative");
  }
  if (!allow_shift) {
    Allocation perturbed = alloc;
    const double old_weight = cls.reads[read_index].weight;
    const double ratio = old_weight > 0.0 ? new_weight / old_weight : 0.0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      perturbed.set_read_assign(b, read_index,
                                alloc.read_assign(b, read_index) * ratio);
    }
    return Speedup(perturbed, backends);
  }
  std::vector<double> weights;
  weights.reserve(cls.reads.size());
  for (const auto& r : cls.reads) weights.push_back(r.weight);
  weights[read_index] = new_weight;
  RebalanceProgram prog = BuildRebalance(cls, alloc, backends, weights);
  QCAP_ASSIGN_OR_RETURN(LpSolution sol, SolveLp(prog.lp));
  const Allocation rebalanced = WithReadAssignments(cls, alloc, prog, sol);
  return Speedup(rebalanced, backends);
}

Result<double> WeightTolerance(const Classification& cls,
                               const Allocation& alloc,
                               const std::vector<BackendSpec>& backends,
                               size_t read_index) {
  if (read_index >= cls.reads.size()) {
    return Status::InvalidArgument("read class index out of range");
  }
  // Maximize delta subject to the rebalancing constraints with the scale
  // fixed at max(current, 1): variables lq..., delta (s is replaced by the
  // constant target scale).
  const double target_scale = std::max(1.0, Scale(alloc, backends));
  const size_t n = backends.size();

  std::vector<std::vector<size_t>> var(n,
                                       std::vector<size_t>(cls.reads.size(),
                                                           SIZE_MAX));
  size_t num_vars = 0;
  for (size_t b = 0; b < n; ++b) {
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (alloc.HoldsAll(b, cls.reads[r].fragments)) var[b][r] = num_vars++;
    }
  }
  const size_t delta_var = num_vars++;
  LinearProgram lp;
  lp.num_vars = num_vars;
  lp.objective.assign(num_vars, 0.0);
  lp.objective[delta_var] = -1.0;  // Maximize delta.

  for (size_t r = 0; r < cls.reads.size(); ++r) {
    std::vector<double> c(num_vars, 0.0);
    bool any = false;
    for (size_t b = 0; b < n; ++b) {
      if (var[b][r] != SIZE_MAX) {
        c[var[b][r]] = 1.0;
        any = true;
      }
    }
    if (!any) continue;
    if (r == read_index) c[delta_var] = -1.0;  // Assign weight + delta.
    lp.AddConstraint(std::move(c), Relation::kEqual, cls.reads[r].weight);
  }
  for (size_t b = 0; b < n; ++b) {
    std::vector<double> c(num_vars, 0.0);
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (var[b][r] != SIZE_MAX) c[var[b][r]] = 1.0;
    }
    lp.AddConstraint(std::move(c), Relation::kLessEqual,
                     target_scale * backends[b].relative_load -
                         alloc.AssignedUpdateLoad(b));
  }
  // Delta is bounded by total capacity; keep the LP bounded explicitly.
  lp.AddVarBound(delta_var, Relation::kLessEqual, 1.0);
  QCAP_ASSIGN_OR_RETURN(LpSolution sol, SolveLp(lp));
  return sol.x[delta_var];
}

Result<Allocation> AddRobustnessHeadroom(
    const Classification& cls, const Allocation& alloc,
    const std::vector<BackendSpec>& backends,
    const RobustnessOptions& options) {
  // Each added replica is closed by the delta closer, which needs the rows
  // closed beforehand; a valid allocation's rows are.
  QCAP_RETURN_NOT_OK(ValidateAllocation(cls, alloc, backends));
  Allocation out = alloc;
  alloc_internal::UpdateCloser closer(cls);
  DenseBitset bits(cls.catalog.size());
  size_t added = 0;
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    while (added < kMaxAddedReplicas) {
      QCAP_ASSIGN_OR_RETURN(double tolerance,
                            WeightTolerance(cls, out, backends, r));
      if (tolerance + 1e-12 >=
          options.required_headroom * cls.reads[r].weight) {
        break;
      }
      // Replicate the class's data (and pinned updates) onto the backend
      // with the most spare relative capacity among those lacking it.
      size_t target = out.num_backends();
      double best_spare = -std::numeric_limits<double>::infinity();
      for (size_t b = 0; b < out.num_backends(); ++b) {
        if (out.HoldsAll(b, cls.reads[r].fragments)) continue;
        const double spare =
            backends[b].relative_load - out.AssignedLoad(b);
        if (spare > best_spare) {
          best_spare = spare;
          target = b;
        }
      }
      if (target == out.num_backends()) break;  // Already everywhere.
      bits.ClearAll();
      for (FragmentId f : cls.reads[r].fragments) bits.Set(f);
      closer.PlaceAndClose(target, bits, &out);
      ++added;
    }
  }
  return out;
}

}  // namespace qcap

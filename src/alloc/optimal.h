// Exact optimal allocation via the Appendix B integer linear program,
// solved with the in-repo simplex + branch-and-bound.
//
// Two-stage optimization, as in the paper: first minimize the scale factor
// (throughput-optimal), then, holding scale at its optimum, minimize the
// total allocated bytes (storage-optimal). Tractable at the sizes the paper
// reports for its LP (<= 7 backends, table-granular fragment counts).
#pragma once

#include "alloc/allocator.h"
#include "solver/milp.h"

namespace qcap {

/// Options for the optimal allocator.
struct OptimalOptions {
  MilpOptions milp;
  /// Skip the second (storage-minimizing) stage.
  bool scale_only = false;
};

/// \brief Appendix B: throughput- then storage-optimal allocation.
///
/// Solves the paper's exact integer program (placement variables A,
/// assignment matrices LQ/LU, validity constraints Eq. 8-11) with the
/// in-repo branch-and-bound MILP. Stage 1 minimizes the scale factor
/// (Eq. 15); stage 2 re-solves with scale fixed at the stage-1 optimum
/// (plus a 1e-6 slack) minimizing stored bytes — the benchmark the
/// heuristics are measured against in Fig. 4(c).
///
/// Both stages are warm-started with the greedy heuristic's scale and
/// storage as upper-bound constraints. These bounds are valid (a feasible
/// solution can never be worse than optimal) and prune the symmetric
/// branch-and-bound tree dramatically on homogeneous clusters, where
/// lexicographic ordering constraints on the placement matrix also break
/// backend permutation symmetry.
///
/// \warning Allocate() caches last_scale(); unlike the other allocators
/// it is not safe to call concurrently from several threads.
class OptimalAllocator : public Allocator {
 public:
  explicit OptimalAllocator(OptimalOptions options = {})
      : options_(std::move(options)) {}

  /// Solves the two-stage ILP for \p cls over \p backends.
  /// \returns the provably optimal allocation, or a Status when the MILP
  /// node budget (\ref MilpOptions::max_nodes) is exhausted first.
  Result<Allocation> Allocate(const Classification& cls,
                              const std::vector<BackendSpec>& backends) override;
  std::string name() const override { return "optimal"; }

  /// The optimal scale found by the last Allocate() call.
  double last_scale() const { return last_scale_; }

 private:
  OptimalOptions options_;
  double last_scale_ = 1.0;
};

}  // namespace qcap

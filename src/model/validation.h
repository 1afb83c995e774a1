// Validity checks for allocations (Eq. 8-11 and data completeness).
#pragma once

#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

/// Options for allocation validation.
struct ValidationOptions {
  /// Require every fragment (even ones unreferenced by any class) to be
  /// stored on at least one backend, so the distributed database is
  /// complete.
  bool require_complete_data = true;
  /// Require every query class (and every fragment) on at least k+1
  /// backends (Appendix C, Eq. 46/47). 0 disables the k-safety check.
  int k_safety = 0;
};

/// \brief Checks that \p alloc's dimensions match its inputs: one row per
/// backend (\p num_backends), one placement bit per catalog fragment, and
/// one assignment column per read and per update class of \p cls. The
/// error names the first dimension that differs.
Status ValidateAllocationShape(const Classification& cls,
                               const Allocation& alloc, size_t num_backends);

/// \brief Checks \p alloc's read shares (Eq. 9 and the sign of Eq. 8's
/// assign): every share is finite and not negative, and every read class's
/// shares sum to its weight, within 1e-6. One pass over the read
/// assignments; placements are not looked at. \p alloc must have \p cls's
/// shape (ValidateAllocationShape). The errors are ValidateAllocation's.
Status ValidateReadShares(const Classification& cls, const Allocation& alloc);

/// \brief Checks that \p alloc is a valid allocation of \p cls onto
/// \p backends:
///  - dimensions match;
///  - assign(C,B) > 0 implies C ⊆ fragments(B)           (Eq. 8)
///  - every read class is fully assigned: Σ_B = weight   (Eq. 9), with
///    finite, non-negative shares (ValidateReadShares)
///  - every update class is assigned with weight(C) to exactly the backends
///    storing overlapping data, and to no others          (Eq. 10)
///  - every update class is assigned at least once        (Eq. 11)
///  - optionally: data completeness and k-safety          (Eq. 46/47)
/// Weight comparisons tolerate an absolute error of 1e-6; a NaN assignment
/// fails every check it takes part in.
Status ValidateAllocation(const Classification& cls, const Allocation& alloc,
                          const std::vector<BackendSpec>& backends,
                          const ValidationOptions& options = {});

/// \brief Algorithm 3 (Appendix C): checks k-safety of an existing
/// allocation restricted to the backends still \p alive.
///
/// The surviving sub-cluster must keep every read class executable on at
/// least k+1 alive backends, every update class allocated on at least k+1
/// alive backends, and every fragment stored on at least k+1 alive
/// backends (Eq. 46/47). With k = 0 this degenerates to "every class is
/// still servable and no data was lost" — the condition the self-healing
/// controller re-checks after each detected crash. \p alive must have one
/// entry per allocation backend.
Status CheckKSafety(const Classification& cls, const Allocation& alloc,
                    const std::vector<bool>& alive, int k);

}  // namespace qcap

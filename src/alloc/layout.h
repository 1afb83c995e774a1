// The allocation-mode chain (Section 3): classify the query journal
// (Section 3.1), allocate the classes (Algorithm 1/2), and check the result
// against the validity rules (Eq. 9-11). Materializing the layout
// (Section 3.4) is PhysicalAllocator's job and starts from the Layout.
#pragma once

#include <vector>

#include "alloc/allocator.h"
#include "engine/catalog.h"
#include "workload/classifier.h"
#include "workload/journal.h"

namespace qcap {

/// A validated data layout with its analytical outcome.
struct Layout {
  Classification classification;
  Allocation allocation;
  std::vector<BackendSpec> backends;
  /// Scale and speedup predicted by the analytical model (Eq. 17-19).
  double model_scale = 1.0;
  double model_speedup = 1.0;
  /// Stored bytes over the catalog's bytes.
  double degree_of_replication = 1.0;
};

/// Classifies \p journal against \p catalog with \p options, allocates the
/// classes onto \p backends with \p allocator, and validates the result.
/// Fails on the first stage that fails.
Result<Layout> BuildLayout(const engine::Catalog& catalog,
                           const QueryJournal& journal,
                           const ClassifierOptions& options,
                           Allocator& allocator,
                           std::vector<BackendSpec> backends);

}  // namespace qcap

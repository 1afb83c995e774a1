// Partitioning advisor: picks the classification granularity for a
// workload by actually running the allocator at each candidate granularity
// and comparing the analytical outcomes.
//
// Section 3.1 leaves the granularity choice to the operator ("the
// classification determines the partitioning"); the advisor automates it
// with the paper's own objective order — maximize throughput first, then
// minimize storage.
#pragma once

#include <memory>
#include <vector>

#include "alloc/allocator.h"
#include "alloc/layout.h"
#include "alloc/memetic.h"
#include "engine/catalog.h"
#include "workload/classifier.h"

namespace qcap {

class ThreadPool;  // common/thread_pool.h

/// Options for the advisor.
struct AdvisorOptions {
  /// Granularities to evaluate, in preference order for exact ties.
  std::vector<Granularity> candidates = {Granularity::kTable,
                                         Granularity::kColumn,
                                         Granularity::kHybrid};
  /// Classifier setting shared by all candidates; the others keep their
  /// ClassifierOptions defaults.
  int horizontal_partitions = 4;
  /// Configuration for the advisor-owned memetic allocator, used when the
  /// advisor is constructed without an external allocator. Its
  /// islands/threads knobs make the default advisor path parallel.
  MemeticOptions memetic;
  /// Optional pool: candidate granularities are classified and allocated
  /// concurrently on it. Requires an allocator whose Allocate() is safe to
  /// call from several threads at once (every allocator in this repo except
  /// OptimalAllocator, which caches last_scale()). The chosen candidate is
  /// the same with or without a pool. Not owned.
  ThreadPool* pool = nullptr;
};

/// One evaluated candidate.
struct AdvisorCandidate {
  Granularity granularity = Granularity::kTable;
  Layout layout;
};

/// Advisor outcome: the chosen candidate plus everything evaluated.
struct AdvisorChoice {
  AdvisorCandidate best;
  std::vector<AdvisorCandidate> evaluated;
};

/// \brief Evaluates candidate granularities and picks the winner: among
/// the candidates within 2% of the best model speedup, the one storing the
/// least.
class PartitioningAdvisor {
 public:
  /// \p allocator computes the allocation for every candidate. Pass
  /// nullptr to let the advisor own a MemeticAllocator configured from
  /// \ref AdvisorOptions::memetic.
  PartitioningAdvisor(const engine::Catalog& catalog, Allocator* allocator,
                      AdvisorOptions options = {});

  /// Classifies \p journal at each candidate granularity, allocates onto
  /// \p backends, validates, and returns the best valid candidate.
  /// Fails if no candidate produces a valid allocation.
  Result<AdvisorChoice> Advise(const QueryJournal& journal,
                               const std::vector<BackendSpec>& backends) const;

 private:
  const engine::Catalog& catalog_;
  Allocator* allocator_;
  AdvisorOptions options_;
  /// Backing storage for the default (memetic) allocator when the caller
  /// passed allocator == nullptr.
  std::unique_ptr<MemeticAllocator> owned_allocator_;
};

}  // namespace qcap

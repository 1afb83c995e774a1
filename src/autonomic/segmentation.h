// Workload segmentation (Section 5): split a timestamped query history
// into segments of stable class mix with a sliding window, allocate each
// segment, and merge the allocations into one layout that is robust to the
// diurnal mix shift without reallocation.
#pragma once

#include <vector>

#include "alloc/allocator.h"
#include "common/status.h"
#include "engine/catalog.h"
#include "workload/classifier.h"
#include "workload/journal.h"

namespace qcap {

/// One time segment of the history.
struct Segment {
  double begin_seconds = 0.0;
  double end_seconds = 0.0;
};

/// Sliding-window length used to compare mixes (the paper uses one hour).
inline constexpr double kSegmentWindowSeconds = 3600.0;
/// L1 distance between adjacent windows' mix vectors that starts a new
/// segment.
inline constexpr double kSegmentMixThreshold = 0.25;

/// Splits \p journal (must be timestamped) into segments of stable query
/// mix. Adjacent windows whose class-share vectors differ by more than
/// kSegmentMixThreshold start a new segment.
Result<std::vector<Segment>> SegmentJournal(const QueryJournal& journal);

/// Per-window share of executions per distinct query (utility for plots
/// and tests): result[w][q] for window w and journal query index q.
Result<std::vector<std::vector<double>>> WindowMixes(
    const QueryJournal& journal, double window_seconds);

/// Classifies and allocates each segment of \p journal separately, then
/// merges the per-segment allocations (min-transfer matching + placement
/// union) into one layout. Read/update assignments of the result follow
/// the first segment; the runtime scheduler balances within the merged
/// placement.
Result<Allocation> SegmentedAllocation(const QueryJournal& journal,
                                       const std::vector<Segment>& segments,
                                       const engine::Catalog& catalog,
                                       const ClassifierOptions& options,
                                       Allocator* allocator,
                                       const std::vector<BackendSpec>& backends);

/// Rebuilds \p placement for \p cls: keeps the per-backend fragment sets,
/// re-derives ROWA update pinning, and spreads each read class's weight
/// evenly over its capable backends. The result validates against \p cls.
Result<Allocation> PlacementForClassification(const Allocation& placement,
                                              const Classification& cls);

}  // namespace qcap

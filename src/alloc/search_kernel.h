// Incremental cost accounting for the allocation-search hot path.
//
// SearchKernel bundles the scratch buffers and precomputed indexes the
// memetic search (and any future local-search allocator) needs to score and
// repair candidate allocations without rescanning the whole allocation:
//  - Evaluate reads the Allocation's running aggregates: O(B) instead of
//    O(B·(R+U)) load sums + O(B·F) byte sums,
//  - GarbageCollect edits each backend's row in place using the index's
//    per-read update closures: O(B·(R·F/64 + U)) instead of rebuilding all
//    B rows per backend (O(B²·(F+R+U))) with an O(U²) fixpoint each,
//  - BeginDelta/EvaluateDelta score a trial that differs from a base
//    allocation on a few backends in O(|touched|),
//  - for one tracked trial mirror (Track), per-backend reference counts of
//    how many positive-share reads need each fragment and update class let
//    CollectTrial skip the closure unions: a share edit that crosses the
//    positivity threshold walks that read's closure ids, and a rejected
//    trial undoes its logged crossings instead of recounting,
// and none of it heap-allocates on the steady-state path (scratch is sized
// in the constructor and reused).
//
// A kernel instance is NOT thread-safe (it owns scratch); give each search
// thread / island its own kernel over the same shared ClassificationIndex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

struct SearchProgress;  // common/stats.h

namespace alloc_internal {

/// Solution cost: lexicographic (scale, stored bytes). Lower is better.
struct SolutionCost {
  double scale = 0.0;
  double bytes = 0.0;

  bool Better(const SolutionCost& other) const {
    if (scale < other.scale - 1e-9) return true;
    if (scale > other.scale + 1e-9) return false;
    return bytes < other.bytes - 1e-6;
  }
};

class SearchKernel {
 public:
  /// \p progress may be null; when set, Evaluate/EvaluateDelta maintain its
  /// counters exactly like the pre-index full evaluation did.
  SearchKernel(const Classification& cls, const ClassificationIndex& index,
               const std::vector<BackendSpec>& backends,
               SearchProgress* progress = nullptr);

  /// Full cost of \p a from the running aggregates. O(B). Requires bound
  /// fragment sizes (Allocation::BindSizes).
  SolutionCost Evaluate(const Allocation& a) const;

  /// Garbage-collects every backend: drops fragments not needed by the
  /// backend's positive read assignments (or the update closure they force),
  /// re-pins update classes, then restores data completeness.
  void GarbageCollect(Allocation* a);

  /// Garbage-collects only backends [begin, end) of \p bs. \p touched is
  /// cleared and receives every backend whose row or load was modified or
  /// inspected for the trial's cost delta: the given backends plus any
  /// orphan-placement targets.
  void GarbageCollectBackends(Allocation* a, const size_t* bs, size_t count,
                              std::vector<size_t>* touched);

  /// Caches \p base's per-backend costs so subsequent EvaluateDelta calls
  /// can score trials against it in O(|touched|). \p base must stay
  /// unchanged until the next BeginDelta.
  void BeginDelta(const Allocation& base, SolutionCost base_cost);

  /// Cost of \p trial, which differs from the BeginDelta base only on the
  /// backends in \p touched. O(|touched|) in the common case (falls back to
  /// one O(B) scan when every top-loaded base backend was touched).
  SolutionCost EvaluateDelta(const Allocation& trial,
                             const std::vector<size_t>& touched) const;

  /// Index-accelerated update-closure fixpoint (identical semantics and
  /// accumulation order as alloc_internal::CloseUpdatesOnBackend).
  double CloseUpdates(Allocation* a, size_t b);

  // --- Reference-counted collection of one trial mirror ---
  //
  // A local search copies a member into a mirror once, then runs many
  // trials on it; each trial edits a few read shares, is collected and
  // scored, and is then accepted or rolled back. For the tracked mirror the
  // kernel keeps per-backend counts, rebuilt from the backend's row before
  // its first share edit after Track, and then kept current by every share
  // edit that crosses the > 1e-15 threshold GarbageCollect uses. Counts
  // depend only on read shares, so placements, update pins and orphan
  // repairs never disturb them.

  /// Starts tracking \p mirror (unowned; must outlive the tracking) and
  /// drops every backend's counts.
  void Track(Allocation* mirror);
  /// The one way a trial edits a share of the tracked mirror:
  /// add_read_assign(b, r, delta), counting b first if it is not yet
  /// counted and logging the edit if r's share on b crossed the threshold.
  void AddTrialShare(size_t b, size_t r, double delta);
  /// GarbageCollectBackends on the tracked mirror. Counted backends keep
  /// the fragments and update pins their counts mark, which is the same set
  /// the closure union yields, so the result is bit-identical; a backend
  /// with no counts is collected by the union.
  void CollectTrial(const size_t* bs, size_t count,
                    std::vector<size_t>* touched);
  /// The trial's share edits stand: forgets the crossing log.
  void AcceptTrial();
  /// The caller restored the mirror's touched rows to their state before
  /// the trial: undoes the logged crossings so the counts match it again.
  void RejectTrial();

 private:
  void CollectBackend(Allocation* a, size_t b);
  void CollectBackends(Allocation* a, const size_t* bs, size_t count,
                       bool use_counts, std::vector<size_t>* touched);
  /// Makes backend \p b hold exactly \p needed (row) and pin exactly
  /// \p pinned (update classes, ascending).
  void ApplyCollected(Allocation* a, size_t b, ConstBitSpan needed,
                      ConstBitSpan pinned);
  /// Rebuilds backend \p b's counts from the tracked mirror's row.
  void CountBackend(size_t b);
  /// Adds (\p up) or removes read \p r's closure from backend \p b's
  /// counts, keeping the needed/pinned bits in step.
  void CountRead(size_t b, size_t r, bool up);
  BitSpan NeededBits(size_t b) {
    return BitSpan(needed_rows_.data() + b * frag_words_, frag_words_,
                   cls_.catalog.size());
  }
  BitSpan PinnedBits(size_t b) {
    return BitSpan(pinned_rows_.data() + b * upd_words_, upd_words_,
                   cls_.updates.size());
  }
  /// Restores data completeness like alloc_internal::PlaceOrphanFragments
  /// (same target choice), recording modified backends in \p touched when
  /// non-null.
  void PlaceOrphans(Allocation* a, std::vector<size_t>* touched);

  const Classification& cls_;
  const ClassificationIndex& index_;
  const std::vector<BackendSpec>& backends_;
  SearchProgress* progress_;

  // Scratch (sized on first use, then reused — no steady-state allocation).
  DenseBitset needed_;
  DenseBitset keep_updates_;
  DenseBitset row_scratch_;
  std::vector<uint32_t> positive_scratch_;  // CollectAbove output, |reads|.

  // Reference counts of the tracked mirror (see Track). Row b of each
  // table is meaningful only while counted_[b] is set.
  struct Crossing {
    uint32_t backend;
    uint32_t read;
    bool up;  // The share became positive.
  };
  Allocation* trial_ = nullptr;
  size_t frag_words_ = 0;
  size_t upd_words_ = 0;
  std::vector<uint32_t> frag_refs_;    // B x F: positive reads needing f.
  std::vector<uint32_t> upd_refs_;     // B x U: positive reads pinning u.
  std::vector<uint64_t> needed_rows_;  // B x frag_words: frag_refs_ > 0.
  std::vector<uint64_t> pinned_rows_;  // B x upd_words: upd_refs_ > 0.
  std::vector<uint8_t> counted_;       // Per backend.
  // The current trial's crossings, in edit order. A trial that crosses
  // more often than the log holds drops every backend's counts on
  // rejection instead (they are rebuilt before the next edit).
  std::vector<Crossing> crossings_;
  size_t num_crossings_ = 0;
  bool crossings_overflowed_ = false;

  // CollectBackend unions a read's closure by scattering its sparse id list
  // when the list is short, and by streaming the dense row otherwise; these
  // are the crossover sizes (ids) per row kind.
  size_t frag_sparse_limit_ = 0;
  size_t upd_sparse_limit_ = 0;

  // Contiguous copy of backends_[b].relative_load so the scale reduction
  // streams one double array instead of striding through BackendSpec.
  std::vector<double> relative_load_;

  // Delta-evaluation cache of the base allocation.
  std::vector<double> base_norm_;   // AssignedLoad / relative_load
  std::vector<double> base_bytes_;  // BackendBytes
  double base_bytes_total_ = 0.0;
  size_t top_count_ = 0;      // Valid entries in top_*.
  size_t top_idx_[3] = {};    // Most-loaded base backends, descending.
  double top_val_[3] = {};
};

}  // namespace alloc_internal
}  // namespace qcap

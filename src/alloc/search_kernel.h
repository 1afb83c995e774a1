// Incremental cost accounting for the allocation-search hot path.
//
// SearchKernel bundles the scratch buffers and precomputed indexes the
// memetic search (and any future local-search allocator) needs to score and
// repair candidate allocations without rescanning the whole allocation:
//  - Evaluate reads the Allocation's running aggregates: O(B) instead of
//    O(B·(R+U)) load sums + O(B·F) byte sums,
//  - BeginDelta/EvaluateDelta score a trial that differs from a base
//    allocation on a few backends in O(|touched|),
//  - a counted allocation carries its own ShareCounts: per-backend
//    reference counts of how many positive-share reads need each fragment
//    and update class, plus per-read counts of the shares a mutation may
//    draw. Every share edit goes through AddShare/AddTrialShare, which walk
//    the edited read's closure ids only when its share crosses a threshold,
//    so CollectCounted edits each collected row in place from the counts
//    (no closure unions), NthShare skips the O(B·R) candidate scan, and a
//    rejected trial undoes its logged crossings,
//  - GarbageCollect is CountShares into kernel scratch followed by a
//    counted collection of every backend: O(B·R + closures of the positive
//    reads) instead of rebuilding all B rows per backend with an O(U²)
//    fixpoint each,
//  - PlaceAndClose and the orphan placement behind every collection are
//    the UpdateCloser's (alloc/allocator.h), which only visits the update
//    classes on the bits a placement added,
//  - CopyCountRows copies only chosen backends' count slices (plus the
//    per-read draw counts), so a search that knows which rows two counted
//    allocations differ on copies only those,
// and none of it heap-allocates on the steady-state path (scratch is sized
// in the constructor or on first use and reused).
//
// A kernel instance is NOT thread-safe (it owns scratch); give each search
// thread / island its own kernel over the same shared ClassificationIndex.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "alloc/allocator.h"
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

/// The collection state of one allocation, which the allocation itself
/// does not hold: which fragments and update pins its positive read shares
/// force onto each backend, and which shares a mutation may draw. It
/// depends on the read shares alone, so placements, update pins and orphan
/// repairs never disturb it. SearchKernel::CountShares builds it; it stays
/// exact as long as every share edit goes through SearchKernel::AddShare or
/// AddTrialShare. Copy-assignment reuses the target's buffers once they
/// have the size; SearchKernel::CopyCountRows copies only some backends'
/// slices.
struct ShareCounts {
  /// Every count, in one array: B x F fragment reference counts (reads
  /// with a share above 1e-15 on b whose closure holds fragment f), then
  /// B x U update reference counts (such reads whose closure pins update
  /// u), then R draw counts (backends with a share above 1e-12 per read
  /// class: the mutation draw's candidates). No count exceeds max(R, B).
  std::vector<uint32_t> counts;
  /// B rows of frag_words bits (fragment count > 0), then B rows of
  /// upd_words bits (update count > 0).
  std::vector<uint64_t> bits;
  /// The sum of the draw counts.
  size_t draw_total = 0;
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
  /// re-pins update classes, then restores data completeness. Counts \p a's
  /// shares into kernel scratch, then runs CollectAll.
  void GarbageCollect(Allocation* a);

  /// Caches \p base's per-backend costs so subsequent EvaluateDelta calls
  /// can score trials against it in O(|touched|). \p base must stay
  /// unchanged until the next BeginDelta.
  void BeginDelta(const Allocation& base, SolutionCost base_cost);

  /// Cost of \p trial, which differs from the BeginDelta base only on the
  /// backends in \p touched. O(|touched|) in the common case (falls back to
  /// one O(B) scan when every top-loaded base backend was touched).
  SolutionCost EvaluateDelta(const Allocation& trial,
                             const std::vector<size_t>& touched) const;

  /// Places \p bits on backend \p b and closes its update pins
  /// (UpdateCloser::PlaceAndClose); the row must be closed, as every
  /// collected row is. Returns the update weight newly pinned.
  double PlaceAndClose(Allocation* a, size_t b, ConstBitSpan bits) {
    return closer_.PlaceAndClose(b, bits, a);
  }

  // --- Counted allocations ---
  //
  // A search keeps a ShareCounts next to each allocation it evolves. A
  // mutation edits a member's shares with AddShare and collects the edited
  // backends from the counts. A local search copies a member, counts
  // included, into a mirror once, then runs many trials on it; each trial
  // edits a few shares with AddTrialShare, is collected and scored, and is
  // then accepted (the member takes the mirror's touched rows and
  // AcceptTrial replays the logged crossings onto the member's counts) or
  // rejected (the mirror takes the member's rows back and RejectTrial
  // undoes the crossings on the mirror's counts).

  /// Counts \p a's shares from scratch into \p counts (sized on first
  /// use). O(B·R + closures of the positive reads).
  void CountShares(const Allocation& a, ShareCounts* counts);
  /// a->add_read_assign(b, r, delta), keeping \p counts exact: when r's
  /// share on b crosses a threshold, walks r's closure ids once.
  void AddShare(Allocation* a, ShareCounts* counts, size_t b, size_t r,
                double delta);
  /// AddShare that also logs the edit's crossings for the trial's
  /// AcceptTrial or RejectTrial.
  void AddTrialShare(Allocation* a, ShareCounts* counts, size_t b, size_t r,
                     double delta);
  /// Collects backends \p bs of \p a from \p counts (which must be \p a's):
  /// every backend keeps exactly the fragments and update pins its counts
  /// mark, the sets the closure union of its positive reads yields. Then
  /// places orphans. \p touched is cleared and receives every backend whose
  /// row or load was modified or inspected for the trial's cost delta: the
  /// given backends plus any orphan-placement targets.
  void CollectCounted(Allocation* a, const ShareCounts& counts,
                      const size_t* bs, size_t count,
                      std::vector<size_t>* touched);
  /// CollectCounted of every backend, with no touched list.
  void CollectAll(Allocation* a, const ShareCounts& counts);
  /// The \p k-th (read class, backend) pair with a share > 1e-12 on \p a,
  /// in r-major, b-ascending order; \p k < counts.draw_total. O(R + B).
  void NthShare(const Allocation& a, const ShareCounts& counts, size_t k,
                size_t* r, size_t* b) const;
  /// The trial's shares stand: replays its logged crossings onto
  /// \p member's counts, whose rows the caller made equal to the mirror's.
  void AcceptTrial(ShareCounts* member);
  /// The caller restored the mirror's touched rows to the member's: undoes
  /// the logged crossings on the mirror's \p counts.
  void RejectTrial(ShareCounts* counts);
  /// Sizes the crossing log for trials to 2R entries, which holds any
  /// memetic trial; a search calls it before its first AddTrialShare, on
  /// the thread that sizes its other buffers. Past that capacity the log
  /// grows.
  void ReserveTrialLog();

  /// Makes \p dst's counts of backends \p bs, and its draw counts, equal
  /// to \p src's: the count half of copying one counted allocation's rows
  /// \p bs into another (Allocation::CopyBackendsFrom is the other half).
  /// When the two differ only on those backends, \p dst equals \p src
  /// afterwards. Both must be sized (CountShares or a copy). O(|bs|·(F + U)
  /// + R); no heap allocation.
  void CopyCountRows(const ShareCounts& src, std::span<const size_t> bs,
                     ShareCounts* dst) const;

 private:
  /// One share edit's threshold crossings: +1 the share rose above the
  /// threshold, -1 it fell to or below it, 0 neither.
  struct Crossing {
    uint32_t backend;
    uint32_t read;
    int8_t refs;  // Threshold 1e-15: the reference counts.
    int8_t draw;  // Threshold 1e-12: the draw counts.
  };

  /// Makes backend \p b hold exactly \p needed (row) and pin exactly
  /// \p pinned (update classes, ascending).
  void ApplyCollected(Allocation* a, size_t b, ConstBitSpan needed,
                      ConstBitSpan pinned);
  /// add_read_assign plus the count update; returns the crossings.
  Crossing EditShare(Allocation* a, ShareCounts* counts, size_t b, size_t r,
                     double delta);
  /// Applies \p c to \p counts, or its inverse when \p undo.
  void ApplyCrossing(ShareCounts* counts, const Crossing& c, bool undo);
  /// Adds (\p up) or removes read \p r's closure from backend \p b's
  /// counts, keeping the needed/pinned bits in step.
  void CountRead(ShareCounts* counts, size_t b, size_t r, bool up);
  /// Offsets into ShareCounts' count array.
  size_t FragRefsAt(size_t b) const { return b * cls_.catalog.size(); }
  size_t UpdRefsAt(size_t b) const {
    return backends_.size() * cls_.catalog.size() + b * cls_.updates.size();
  }
  size_t DrawAt(size_t r) const {
    return backends_.size() * (cls_.catalog.size() + cls_.updates.size()) +
           r;
  }
  /// Offsets into ShareCounts' bits.
  size_t NeededAt(size_t b) const { return b * frag_words_; }
  size_t PinnedAt(size_t b) const {
    return backends_.size() * frag_words_ + b * upd_words_;
  }
  BitSpan NeededBits(ShareCounts* counts, size_t b) const {
    return BitSpan(counts->bits.data() + NeededAt(b), frag_words_,
                   cls_.catalog.size());
  }
  BitSpan PinnedBits(ShareCounts* counts, size_t b) const {
    return BitSpan(counts->bits.data() + PinnedAt(b), upd_words_,
                   cls_.updates.size());
  }
  ConstBitSpan NeededBits(const ShareCounts& counts, size_t b) const {
    return ConstBitSpan(counts.bits.data() + NeededAt(b), frag_words_,
                        cls_.catalog.size());
  }
  ConstBitSpan PinnedBits(const ShareCounts& counts, size_t b) const {
    return ConstBitSpan(counts.bits.data() + PinnedAt(b), upd_words_,
                        cls_.updates.size());
  }

  const Classification& cls_;
  const ClassificationIndex& index_;
  const std::vector<BackendSpec>& backends_;
  SearchProgress* progress_;

  UpdateCloser closer_;

  // Scratch (sized on first use, then reused — no steady-state allocation).
  std::vector<uint32_t> positive_scratch_;  // CollectAbove output, |reads|.
  ShareCounts gc_counts_;                   // GarbageCollect's counts.

  size_t frag_words_ = 0;
  size_t upd_words_ = 0;
  // The current trial's crossings, in edit order (AddTrialShare). Sized to
  // 2R by ReserveTrialLog, which holds any memetic trial: each moves a
  // read's share off one backend and onto another at most once.
  std::vector<Crossing> crossings_;

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

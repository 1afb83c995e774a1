// Allocator interface and helpers shared by all allocation strategies.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

/// \brief Strategy interface: computes a partial replication of the
/// classified workload onto the given backends.
class Allocator {
 public:
  virtual ~Allocator() = default;

  /// Computes an allocation. Implementations must return allocations that
  /// pass ValidateAllocation().
  virtual Result<Allocation> Allocate(
      const Classification& cls,
      const std::vector<BackendSpec>& backends) = 0;

  /// Human-readable strategy name, e.g. "greedy".
  virtual std::string name() const = 0;
};

namespace alloc_internal {

/// Places every update class whose fragments overlap backend \p b's current
/// fragment set fully onto \p b (fragments + pinned assignment, Eq. 10),
/// iterating to a fixpoint since adding an update's fragments can create
/// new overlaps. Returns the total update weight newly added to \p b. A
/// zero-weight class never reads as pinned, so a pass ends the loop when
/// it adds no fragment and pins no positive weight.
double CloseUpdatesOnBackend(const Classification& cls, size_t b,
                             Allocation* alloc);

/// Index-accelerated CloseUpdatesOnBackend: identical fixpoint order (each
/// round tests against a snapshot of the row taken at round start, ascending
/// update index) so the accumulated weight is bitwise identical to the
/// unindexed version, but overlap tests are word-parallel and nothing is
/// heap-allocated beyond \p row_scratch, which callers size once and reuse.
double CloseUpdatesOnBackend(const Classification& cls,
                             const ClassificationIndex& index, size_t b,
                             Allocation* alloc, DenseBitset* row_scratch);

/// Runs CloseUpdatesOnBackend for every backend.
void CloseUpdatesEverywhere(const Classification& cls, Allocation* alloc);

/// Ensures data completeness: every fragment not yet stored anywhere is
/// placed on the backend currently storing the fewest bytes that would not
/// pick up new update obligations by storing it (any backend if none
/// qualifies, followed by an update-closure pass).
void PlaceOrphanFragments(const Classification& cls, Allocation* alloc);

/// \brief One pass that scores a bundle against every backend row.
///
/// Score walks the bundle's words once. For each word it visits every
/// backend and adds the sizes of the bits the row lacks in ascending
/// fragment id, so missing(b) equals Allocation::MissingBytes(b, bundle)
/// bit for bit and holds(b) equals HoldsAllBits(b, bundle), while the
/// backends' sums run as independent chains side by side.
class BundleScores {
 public:
  explicit BundleScores(size_t num_backends)
      : missing_(num_backends), holds_(num_backends) {}

  /// Scores \p bundle against every row of \p alloc (sizes must be bound).
  void Score(const Allocation& alloc, ConstBitSpan bundle);

  /// Bytes of the bundle missing from backend \p b.
  double missing(size_t b) const { return missing_[b]; }
  /// True iff backend \p b stores the whole bundle.
  bool holds(size_t b) const { return holds_[b] != 0; }

 private:
  std::vector<double> missing_;
  std::vector<uint8_t> holds_;
};

/// \brief Place-then-close for rows that change only through it.
///
/// PlaceAndClose places \p bits on a row and then pins every update class
/// the row newly overlaps, to a fixpoint. It requires the row to be closed
/// beforehand: every update class that overlaps it is pinned there with
/// all its fragments, as holds for a row that changed only through
/// PlaceAndClose or CloseUpdatesOnBackend. Then only the bits a placement
/// newly set can create an overlap, so each round visits just the classes
/// on those bits (ClassificationIndex::updates_of_fragment) and pins them
/// in ascending order, and the next round follows the bits this round
/// added. Those are the rescan's pins, PlaceBits calls and summed weight in
/// the rescan's order (less re-pins of zero-weight classes, which change
/// nothing), so the result is bit-identical to PlaceBits followed by
/// CloseUpdatesOnBackend.
class UpdateCloser {
 public:
  UpdateCloser(const Classification& cls, const ClassificationIndex& index);

  /// Places \p bits on backend \p b, closes the row and returns the update
  /// weight newly pinned on \p b.
  double PlaceAndClose(size_t b, ConstBitSpan bits, Allocation* alloc);

 private:
  /// Sets the bits of \p bits that backend \p b's row lacks in fresh_;
  /// returns true iff there are any.
  bool MarkFresh(const Allocation& alloc, size_t b, ConstBitSpan bits);

  const Classification& cls_;
  const ClassificationIndex& index_;
  std::vector<uint64_t> fresh_;  // bits the last round newly set
  std::vector<size_t> due_;      // update classes to pin this round
};

/// \brief The greedy allocators' pending queue: a max-heap keyed by
/// (key descending, push sequence ascending).
///
/// Algorithm 1 (Line 33) re-sorts the pending classes by remaining weight x
/// size after every placement, but only the popped class's key can change,
/// so every queued key is fixed at its push. Popping the largest key, the
/// earliest push among equal keys, is then exactly the order of the
/// initial stable sort followed by re-inserting every re-pushed class after
/// the classes whose key is not lower.
template <typename T>
class PendingQueue {
 public:
  bool empty() const { return heap_.empty(); }
  size_t size() const { return heap_.size(); }
  void Reserve(size_t n) { heap_.reserve(n); }

  void Push(double key, const T& item) {
    heap_.push_back(Entry{key, next_seq_++, item});
    std::push_heap(heap_.begin(), heap_.end(), PopsLater);
  }
  /// Removes and returns the first class in pop order. Requires !empty().
  T Pop() {
    std::pop_heap(heap_.begin(), heap_.end(), PopsLater);
    const T item = heap_.back().item;
    heap_.pop_back();
    return item;
  }

 private:
  struct Entry {
    double key;
    uint64_t seq;
    T item;
  };
  static bool PopsLater(const Entry& a, const Entry& b) {
    return a.key < b.key || (a.key == b.key && a.seq > b.seq);
  }

  std::vector<Entry> heap_;
  uint64_t next_seq_ = 0;
};

}  // namespace alloc_internal
}  // namespace qcap

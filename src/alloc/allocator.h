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

/// \brief The two validity repairs every allocator runs: the update
/// closure (Eq. 10, ROWA) and orphan placement (Eq. 11, data completeness).
///
/// PlaceAndClose places \p bits on a row and then pins every update class
/// the row newly overlaps, with all its fragments, to a fixpoint. It
/// requires the row to be closed beforehand: every update class that
/// overlaps it is pinned there with all its fragments. An empty row is
/// closed, and so is a row that changed only through PlaceAndClose or a
/// garbage collection. Then only the bits a placement newly set can create
/// an overlap, so each round visits just the classes on those bits and pins
/// them in ascending order, and the next round follows the bits this round
/// added. Those are the pins, PlaceBits calls and summed weight of the
/// rescan fixpoint (each round tests every unpinned class, ascending,
/// against the row as it stood at the round's start), in the rescan's
/// order, less re-pins of zero-weight classes, which change nothing. So the
/// rows, pins and running aggregates are bit-identical to PlaceBits
/// followed by that rescan (tests/alloc_reference.h keeps it as the
/// oracle).
///
/// PlaceOrphans places every fragment stored nowhere, in ascending id, on
/// the backend storing the fewest bytes at that moment (the first such
/// backend on ties), then closes that backend's row. It requires closed
/// rows too.
///
/// The closer keeps its own copy of each update class's fragment bitset
/// and a fragment -> update classes list, built in O(F + sum of |u|) from
/// the Classification alone, which must outlive it. Not thread-safe: it
/// owns scratch.
class UpdateCloser {
 public:
  explicit UpdateCloser(const Classification& cls);

  /// Places \p bits on backend \p b, closes the row and returns the update
  /// weight newly pinned on \p b.
  double PlaceAndClose(size_t b, ConstBitSpan bits, Allocation* alloc);

  /// Places every orphan fragment of \p alloc (see above). When \p touched
  /// is non-null, appends each target backend it does not yet list.
  void PlaceOrphans(Allocation* alloc, std::vector<size_t>* touched);

 private:
  ConstBitSpan UpdateBits(size_t u) const {
    return ConstBitSpan(update_bits_.data() + u * words_, words_,
                        cls_.catalog.size());
  }
  /// Sets the bits of \p bits that backend \p b's row lacks in fresh_;
  /// returns true iff there are any.
  bool MarkFresh(const Allocation& alloc, size_t b, ConstBitSpan bits);
  /// Pins the classes on fresh_'s bits, which backend \p b's row has just
  /// received, to a fixpoint; returns the weight pinned. Leaves fresh_
  /// all zero, as it is between calls.
  double CloseFresh(size_t b, Allocation* alloc);

  const Classification& cls_;
  size_t words_;                        // Words per fragment bitset.
  std::vector<uint64_t> update_bits_;   // U rows of words_.
  std::vector<size_t> updates_off_;     // F + 1 offsets into updates_of_.
  std::vector<size_t> updates_of_;      // Update classes per fragment, asc.
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

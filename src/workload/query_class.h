// Query classes: groups of queries referencing the same fragment set
// (Section 3.1, Eq. 2-4), plus the classification result container.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "common/arena.h"
#include "workload/fragment.h"

namespace qcap {

/// A class of similar queries: identified by the set of fragments its
/// member queries reference.
struct QueryClass {
  /// Referenced fragments (sorted, unique). Defines the class identity.
  FragmentSet fragments;
  /// Relative share of the total workload cost (Eq. 4); all classes of a
  /// classification sum to 1.
  double weight = 0.0;
  /// Mean cost of a single execution of a member query (journal cost
  /// units, e.g. seconds). Drives the simulator's service times.
  double mean_cost = 1.0;
  /// True for update query classes (members are update requests).
  bool is_update = false;
  /// Display label, e.g. "Q1" or "U_order_line".
  std::string label;
  /// Indices of member queries in the originating journal.
  std::vector<size_t> members;
};

/// \brief Result of classifying a journal: fragments, read classes CQ, and
/// update classes CU, with weights normalized across CQ ∪ CU.
struct Classification {
  FragmentCatalog catalog;
  std::vector<QueryClass> reads;    ///< CQ.
  std::vector<QueryClass> updates;  ///< CU.

  /// Number of classes |C| = |CQ| + |CU|.
  size_t NumClasses() const { return reads.size() + updates.size(); }

  /// updates(C) (Eq. 12): indices into `updates` of the update classes whose
  /// fragment sets overlap \p c.fragments.
  std::vector<size_t> OverlappingUpdates(const QueryClass& c) const;

  /// Σ weight over updates(C) — the update weight co-allocated with C.
  double OverlappingUpdateWeight(const QueryClass& c) const;

  /// Union of C's fragments with the fragments of all classes in updates(C)
  /// (the data that must be placed together with C in Algorithm 1).
  FragmentSet FragmentsWithUpdates(const QueryClass& c) const;

  /// Sum of weights of all classes (should be ~1 after classification).
  double TotalWeight() const;

  /// Consistency check: weights in [0,1] summing to ~1, fragment ids valid,
  /// fragment sets sorted/unique and non-empty.
  Status Validate() const;
};

/// \brief Precomputed set-algebra indexes over a Classification.
///
/// Built once per allocator call, consumed by the search hot loops so they
/// never re-derive overlaps, closures, or bundle sizes:
///  - interned per-class fragment bitsets (word-parallel Intersects /
///    HoldsAll against allocation rows),
///  - memoized updates(C) lists and weights (Eq. 12),
///  - memoized bundles C ∪ updates(C) with their byte sizes (Algorithm 1's
///    sort keys and difference sets),
///  - the transitive update closure per read class: the update classes (and
///    the union of their fragments) a backend is forced to keep when it
///    serves that read, as ascending id lists, collapsing GarbageCollect's
///    O(U²) fixpoint into precomputed lists,
///  - a fragment → read classes inverted index.
///
/// Layout: struct-of-arrays. All per-class bitsets of one kind live in a
/// single contiguous arena-backed pool (row r at offset r * words), and the
/// overlap/inverted lists are CSR arrays, so the search streams cache lines
/// instead of chasing per-class vector headers, and construction does one
/// arena carve per pool instead of O(|C|) heap allocations. Overlap lists
/// are built from the fragment inverted index (cost proportional to the
/// overlaps that exist), and the per-read closures come from the connected
/// components of the update-overlap graph — reachability from a seed set is
/// the union of the components touching it, so the result is bit-identical
/// to the original per-read breadth-first search at a fraction of the cost.
///
/// The index is immutable after construction and safe to share across
/// threads. It must not outlive the Classification it was built from.
class ClassificationIndex {
 public:
  explicit ClassificationIndex(const Classification& cls);

  /// Rows point into the arena pools: not copyable. Movable — the pools are
  /// heap blocks owned by the arena, so the row pointers survive a move.
  ClassificationIndex(const ClassificationIndex&) = delete;
  ClassificationIndex& operator=(const ClassificationIndex&) = delete;
  ClassificationIndex(ClassificationIndex&&) = default;
  ClassificationIndex& operator=(ClassificationIndex&&) = default;

  size_t num_fragments() const { return num_fragments_; }
  size_t num_reads() const { return num_reads_; }
  size_t num_updates() const { return num_updates_; }

  /// Interned fragment bitset of read class \p r / update class \p u.
  ConstBitSpan read_bits(size_t r) const {
    return FragRow(read_bits_, r);
  }
  ConstBitSpan update_bits(size_t u) const {
    return FragRow(update_bits_, u);
  }

  /// updates(C) (Eq. 12), ascending update indices.
  std::span<const size_t> read_overlapping_updates(size_t r) const {
    return CsrRow(read_over_upd_off_, read_over_upd_, r);
  }
  std::span<const size_t> update_overlapping_updates(size_t u) const {
    return CsrRow(upd_over_upd_off_, upd_over_upd_, u);
  }
  /// Read classes overlapping update class \p u (ascending).
  std::span<const size_t> reads_overlapping_update(size_t u) const {
    return CsrRow(upd_over_reads_off_, upd_over_reads_, u);
  }
  /// Σ weight over updates(C).
  double read_overlapping_update_weight(size_t r) const {
    return read_over_weight_[r];
  }
  double update_overlapping_update_weight(size_t u) const {
    return upd_over_weight_[u];
  }

  /// Bundle C ∪ updates(C): the data placed together with the class in
  /// Algorithm 1, as a bitset plus its total bytes.
  ConstBitSpan read_bundle_bits(size_t r) const {
    return FragRow(read_bundle_bits_, r);
  }
  ConstBitSpan update_bundle_bits(size_t u) const {
    return FragRow(update_bundle_bits_, u);
  }
  double read_bundle_bytes(size_t r) const { return read_bundle_bytes_[r]; }
  double update_bundle_bytes(size_t u) const { return upd_bundle_bytes_[u]; }

  /// Transitive update closure of read class \p r, as ascending ids: every
  /// update class reachable from r's fragments by chaining overlaps, and the
  /// union of r's fragments with all their fragment sets. A backend serving
  /// r must keep exactly these fragments and update pins for r's sake.
  /// Large instances typically have a few dozen ids per closure out of
  /// thousands of fragments, so the share counts
  /// (SearchKernel::CountShares and every share edit) walk these lists.
  std::span<const uint32_t> read_closure_fragment_ids(size_t r) const {
    return std::span<const uint32_t>(
        closure_frag_ids_ + closure_frag_ids_off_[r],
        closure_frag_ids_off_[r + 1] - closure_frag_ids_off_[r]);
  }
  std::span<const uint32_t> read_closure_update_ids(size_t r) const {
    return std::span<const uint32_t>(
        closure_upd_ids_ + closure_upd_ids_off_[r],
        closure_upd_ids_off_[r + 1] - closure_upd_ids_off_[r]);
  }
  /// Hints the CSR offset entries of read \p r's closure id lists into
  /// cache. Collectors walking many scattered reads issue this a few reads
  /// ahead so the id-list address computation never stalls on the offsets.
  void PrefetchReadClosureIds(size_t r) const {
    __builtin_prefetch(closure_frag_ids_off_ + r);
    __builtin_prefetch(closure_upd_ids_off_ + r);
  }

  /// Connected components of the update-overlap graph — the closure basis.
  /// Each component carries the bitset of its update classes and the union
  /// of their fragments; a read's closure is its own bits plus the OR of
  /// the components its updates(C) seeds touch (unions distribute over
  /// reachability, so the closure id lists are exactly these ORs).
  size_t num_components() const { return num_components_; }
  ConstBitSpan component_updates(size_t c) const {
    return ConstBitSpan(comp_upd_ + c * upd_words_, upd_words_, num_updates_);
  }
  ConstBitSpan component_fragments(size_t c) const {
    return FragRow(comp_frag_, c);
  }
  /// Distinct components touched by read \p r (first-touch order of the
  /// ascending updates(C) list — deterministic).
  std::span<const uint32_t> read_components(size_t r) const {
    return std::span<const uint32_t>(read_comp_ + read_comp_off_[r],
                                     read_comp_off_[r + 1] -
                                         read_comp_off_[r]);
  }

  /// Inverted index: read classes referencing fragment \p f (ascending).
  std::span<const size_t> reads_of_fragment(FragmentId f) const {
    return CsrRow(frag_reads_off_, frag_reads_, f);
  }

 private:
  ConstBitSpan FragRow(const uint64_t* pool, size_t row) const {
    return ConstBitSpan(pool + row * frag_words_, frag_words_,
                        num_fragments_);
  }
  static std::span<const size_t> CsrRow(const size_t* offsets,
                                        const size_t* data, size_t row) {
    return std::span<const size_t>(data + offsets[row],
                                   offsets[row + 1] - offsets[row]);
  }

  Arena arena_;
  size_t num_fragments_ = 0;
  size_t num_reads_ = 0;
  size_t num_updates_ = 0;
  size_t frag_words_ = 0;  // Words per fragment bitset row.
  size_t upd_words_ = 0;   // Words per update-class bitset row.

  // SoA bitset pools (arena; row r at r * words).
  uint64_t* read_bits_ = nullptr;         // num_reads x frag_words
  uint64_t* update_bits_ = nullptr;       // num_updates x frag_words
  uint64_t* read_bundle_bits_ = nullptr;  // num_reads x frag_words
  uint64_t* update_bundle_bits_ = nullptr;  // num_updates x frag_words
  uint64_t* comp_upd_ = nullptr;            // num_components x upd_words
  uint64_t* comp_frag_ = nullptr;           // num_components x frag_words
  size_t num_components_ = 0;

  // Per-class scalar columns (arena).
  double* read_over_weight_ = nullptr;
  double* upd_over_weight_ = nullptr;
  double* read_bundle_bytes_ = nullptr;
  double* upd_bundle_bytes_ = nullptr;

  // CSR adjacency (arena): offsets have num_rows + 1 entries.
  size_t* read_over_upd_off_ = nullptr;
  size_t* read_over_upd_ = nullptr;
  size_t* upd_over_upd_off_ = nullptr;
  size_t* upd_over_upd_ = nullptr;
  size_t* upd_over_reads_off_ = nullptr;
  size_t* upd_over_reads_ = nullptr;
  size_t* frag_reads_off_ = nullptr;
  size_t* frag_reads_ = nullptr;
  size_t* read_comp_off_ = nullptr;    // num_reads + 1
  uint32_t* read_comp_ = nullptr;      // distinct comp ids per read
  size_t* closure_frag_ids_off_ = nullptr;  // num_reads + 1
  uint32_t* closure_frag_ids_ = nullptr;    // set fragment ids per closure
  size_t* closure_upd_ids_off_ = nullptr;   // num_reads + 1
  uint32_t* closure_upd_ids_ = nullptr;     // set update ids per closure
};

}  // namespace qcap

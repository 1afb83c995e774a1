// The allocation data structure: which fragments live on which backend, and
// how much of each query class's weight each backend handles (the assign
// function of Eq. 8).
//
// Placement rows are stored as word-packed bitsets and every mutation keeps
// per-backend running aggregates (assigned read/update load, stored bytes
// when fragment sizes are bound, per-fragment replica counts) so the search
// hot path reads Scale/BackendBytes/ReplicaCount in O(1) per backend instead
// of rescanning the matrices. Aggregates are maintained incrementally with
// exact deltas; they can drift from a from-scratch recompute by a few ulps
// after long mutation sequences (the property tests pin the drift < 1e-9).
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/fragment.h"
#include "workload/query_class.h"

namespace qcap {

/// One cell of the read-assignment matrix: read class \p read's share on
/// backend \p backend.
struct ReadCell {
  uint32_t backend = 0;
  uint32_t read = 0;
};

/// \brief A partial replication: per-backend fragment placement plus the
/// per-class load assignment matrices LQ and LU (Appendix B notation).
class Allocation {
 public:
  Allocation() = default;

  /// Creates an empty allocation for \p num_backends backends over
  /// \p num_fragments fragments with \p num_reads read classes and
  /// \p num_updates update classes.
  Allocation(size_t num_backends, size_t num_fragments, size_t num_reads,
             size_t num_updates);

  /// Same, but also binds the catalog's fragment sizes so per-backend byte
  /// totals are maintained incrementally (BackendBytes becomes O(1)).
  Allocation(size_t num_backends, const FragmentCatalog& catalog,
             size_t num_reads, size_t num_updates);

  size_t num_backends() const { return num_backends_; }
  size_t num_fragments() const { return num_fragments_; }
  size_t num_reads() const { return num_reads_; }
  size_t num_updates() const { return num_updates_; }

  /// Binds \p catalog's fragment sizes to this allocation (recomputing the
  /// per-backend byte aggregates once); subsequent placement mutations keep
  /// them current in O(1). Copies share the bound sizes.
  void BindSizes(const FragmentCatalog& catalog);
  /// True iff fragment sizes are bound (BackendBytes reads the aggregate).
  bool sizes_bound() const { return frag_bytes_ != nullptr; }

  // --- Fragment placement (allocation matrix A) ---

  /// Places fragment \p f on backend \p b (idempotent).
  void Place(size_t b, FragmentId f);
  /// Places every fragment of \p set on backend \p b.
  void PlaceSet(size_t b, const FragmentSet& set);
  /// Places every fragment of \p bits on backend \p b (a DenseBitset
  /// converts implicitly).
  void PlaceBits(size_t b, ConstBitSpan bits);
  /// Removes every fragment of backend \p b that is not in \p keep.
  void RetainFragments(size_t b, ConstBitSpan keep);
  /// Empties backend \p b: no fragments, all assignments zero. Resets the
  /// backend's aggregates exactly (no accumulated drift survives).
  void ClearBackendRow(size_t b);
  /// Makes backends \p bs equal to \p src's: their placement and assignment
  /// rows and running aggregates, plus the whole replica-count column. When
  /// this and \p src differ only on the rows in \p bs, they are equal
  /// afterwards, bit for bit. Both must have the same shape; reuses this
  /// allocation's buffers (no heap allocation).
  void CopyBackendsFrom(const Allocation& src, std::span<const size_t> bs);
  /// CopyBackendsFrom for an edit that changed, of the read-assignment
  /// rows, only the cells in \p cells (each on a backend of \p bs): copies
  /// the placement and update-assignment rows and running aggregates of
  /// \p bs and the replica-count column as CopyBackendsFrom does, but of
  /// the read-assignment rows only \p cells. When this and \p src differ
  /// only there, they are equal afterwards, bit for bit, in
  /// O(|bs|·(F/64 + U) + |cells| + F) instead of O(|bs|·R + F). A cell
  /// may repeat. No heap allocation.
  void CopyEditsFrom(const Allocation& src, std::span<const size_t> bs,
                     std::span<const ReadCell> cells);
  /// True iff fragment \p f is on backend \p b.
  bool IsPlaced(size_t b, FragmentId f) const;
  /// fragments(B): the sorted fragment set of backend \p b.
  FragmentSet BackendFragments(size_t b) const;
  /// Copies backend \p b's placement row into \p out (resized to fit).
  void SnapshotRow(size_t b, DenseBitset* out) const;
  /// Read-only view of backend \p b's placement row.
  ConstBitSpan RowBits(size_t b) const {
    return ConstBitSpan(row(b), words_per_backend_, num_fragments_);
  }
  /// True iff all fragments of \p set are on backend \p b.
  bool HoldsAll(size_t b, const FragmentSet& set) const;
  /// True iff any fragment of \p set is on backend \p b.
  bool HoldsAny(size_t b, const FragmentSet& set) const;
  /// True iff all fragments of \p set are on backend \p b (word-parallel).
  bool HoldsAllBits(size_t b, ConstBitSpan set) const;
  /// True iff backend \p b stores any fragment of \p set (word-parallel).
  bool RowIntersects(size_t b, ConstBitSpan set) const;
  /// Number of backends holding fragment \p f. O(1).
  size_t ReplicaCount(FragmentId f) const;
  /// Total bytes stored on backend \p b according to \p catalog. O(1) when
  /// sizes are bound (the bound sizes take precedence over \p catalog,
  /// which must then describe the same fragments).
  double BackendBytes(size_t b, const FragmentCatalog& catalog) const;
  /// Bytes of \p want's fragments missing from backend \p b, summed in
  /// ascending fragment id order. Requires bound sizes.
  double MissingBytes(size_t b, ConstBitSpan want) const;
  /// The bound fragment sizes, indexed by fragment id. Requires bound
  /// sizes.
  std::span<const double> FragmentSizes() const {
    return std::span<const double>(frag_bytes_->data(), frag_bytes_->size());
  }

  // --- Load assignment (matrices LQ / LU) ---

  double read_assign(size_t b, size_t read_class) const;
  void set_read_assign(size_t b, size_t read_class, double value);
  void add_read_assign(size_t b, size_t read_class, double delta);

  double update_assign(size_t b, size_t update_class) const;
  void set_update_assign(size_t b, size_t update_class, double value);

  /// assignedLoad(B) (Eq. 14): total read + update weight on backend \p b.
  /// O(1) via the running aggregates.
  double AssignedLoad(size_t b) const;
  /// Total read weight assigned to backend \p b. O(1).
  double AssignedReadLoad(size_t b) const;
  /// Total update weight assigned to backend \p b. O(1).
  double AssignedUpdateLoad(size_t b) const;
  /// Σ_b read_assign(b, read_class).
  double TotalReadAssign(size_t read_class) const;

  // --- Contiguous column views (SoA access for the SIMD hot paths) ---

  /// Backend \p b's read-assignment row (num_reads doubles, contiguous).
  std::span<const double> ReadAssignRow(size_t b) const {
    return std::span<const double>(read_assign_.data() + b * num_reads_,
                                   num_reads_);
  }
  /// Per-backend stored-byte aggregates. Requires bound sizes.
  std::span<const double> BackendBytesColumn() const {
    return std::span<const double>(bytes_.data(), bytes_.size());
  }
  /// Per-backend assigned read / update load aggregates.
  std::span<const double> ReadLoadColumn() const {
    return std::span<const double>(read_load_.data(), read_load_.size());
  }
  std::span<const double> UpdateLoadColumn() const {
    return std::span<const double>(update_load_.data(), update_load_.size());
  }
  /// Per-fragment replica counts.
  std::span<const uint32_t> ReplicaCounts() const {
    return std::span<const uint32_t>(replica_count_.data(),
                                     replica_count_.size());
  }

  /// Renders a compact table of placements and assignments for debugging.
  std::string ToString(const Classification& cls) const;

 private:
  double frag_size(FragmentId f) const { return (*frag_bytes_)[f]; }
  /// The part of CopyBackendsFrom both copies share: everything of
  /// backends \p bs but their read-assignment rows, and the replica-count
  /// column.
  void CopyAllButReadRowsFrom(const Allocation& src,
                              std::span<const size_t> bs);
  uint64_t* row(size_t b) { return placed_.data() + b * words_per_backend_; }
  const uint64_t* row(size_t b) const {
    return placed_.data() + b * words_per_backend_;
  }

  size_t num_backends_ = 0;
  size_t num_fragments_ = 0;
  size_t num_reads_ = 0;
  size_t num_updates_ = 0;
  size_t words_per_backend_ = 0;
  std::vector<uint64_t> placed_;       // num_backends x words_per_backend
  std::vector<double> read_assign_;    // num_backends x num_reads
  std::vector<double> update_assign_;  // num_backends x num_updates

  // Running aggregates, maintained by every mutator.
  std::vector<double> read_load_;        // per backend
  std::vector<double> update_load_;      // per backend
  std::vector<double> bytes_;            // per backend (valid iff sizes bound)
  std::vector<uint32_t> replica_count_;  // per fragment

  // Bound fragment sizes (shared across copies; null = not bound).
  std::shared_ptr<const std::vector<double>> frag_bytes_;
};

}  // namespace qcap

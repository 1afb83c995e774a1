#include "model/allocation.h"

#include <algorithm>
#include <cassert>

#include "common/strings.h"

namespace qcap {

Allocation::Allocation(size_t num_backends, size_t num_fragments,
                       size_t num_reads, size_t num_updates)
    : num_backends_(num_backends),
      num_fragments_(num_fragments),
      num_reads_(num_reads),
      num_updates_(num_updates),
      words_per_backend_((num_fragments + 63) / 64),
      placed_(num_backends * words_per_backend_, 0),
      read_assign_(num_backends * num_reads, 0.0),
      update_assign_(num_backends * num_updates, 0.0),
      read_load_(num_backends, 0.0),
      update_load_(num_backends, 0.0),
      replica_count_(num_fragments, 0) {}

Allocation::Allocation(size_t num_backends, const FragmentCatalog& catalog,
                       size_t num_reads, size_t num_updates)
    : Allocation(num_backends, catalog.size(), num_reads, num_updates) {
  BindSizes(catalog);
}

void Allocation::BindSizes(const FragmentCatalog& catalog) {
  assert(catalog.size() == num_fragments_);
  auto sizes = std::make_shared<std::vector<double>>();
  sizes->reserve(num_fragments_);
  for (const Fragment& f : catalog.fragments()) sizes->push_back(f.size_bytes);
  frag_bytes_ = std::move(sizes);
  // Recompute the per-backend byte aggregates from scratch (ascending
  // fragment id, matching the unbound scan order).
  bytes_.assign(num_backends_, 0.0);
  for (size_t b = 0; b < num_backends_; ++b) {
    for (FragmentId f = 0; f < num_fragments_; ++f) {
      if (IsPlaced(b, f)) bytes_[b] += frag_size(f);
    }
  }
}

void Allocation::Place(size_t b, FragmentId f) {
  assert(b < num_backends_ && f < num_fragments_);
  uint64_t& word = row(b)[f >> 6];
  const uint64_t bit = uint64_t{1} << (f & 63);
  if ((word & bit) != 0) return;
  word |= bit;
  ++replica_count_[f];
  if (frag_bytes_ != nullptr) bytes_[b] += frag_size(f);
}

void Allocation::PlaceSet(size_t b, const FragmentSet& set) {
  for (FragmentId f : set) Place(b, f);
}

void Allocation::PlaceBits(size_t b, ConstBitSpan bits) {
  assert(bits.num_bits() == num_fragments_);
  uint64_t* r = row(b);
  const uint64_t* w = bits.words();
  // SIMD prepass skips straight to words with something to add; words where
  // bits ⊆ row are no-ops for both the OR and the aggregates, so the per-bit
  // side effects run in exactly the original ascending order.
  for (size_t i = simd::FindAndNot(w, r, 0, words_per_backend_);
       i < words_per_backend_;
       i = simd::FindAndNot(w, r, i + 1, words_per_backend_)) {
    uint64_t added = w[i] & ~r[i];
    while (added != 0) {
      const FragmentId f =
          static_cast<FragmentId>(i * 64 + __builtin_ctzll(added));
      ++replica_count_[f];
      if (frag_bytes_ != nullptr) bytes_[b] += frag_size(f);
      added &= added - 1;
    }
    r[i] |= w[i];
  }
}

void Allocation::RetainFragments(size_t b, ConstBitSpan keep) {
  assert(keep.num_bits() == num_fragments_);
  uint64_t* r = row(b);
  const uint64_t* k = keep.words();
  for (size_t i = simd::FindAndNot(r, k, 0, words_per_backend_);
       i < words_per_backend_;
       i = simd::FindAndNot(r, k, i + 1, words_per_backend_)) {
    uint64_t removed = r[i] & ~k[i];
    while (removed != 0) {
      const FragmentId f =
          static_cast<FragmentId>(i * 64 + __builtin_ctzll(removed));
      --replica_count_[f];
      if (frag_bytes_ != nullptr) bytes_[b] -= frag_size(f);
      removed &= removed - 1;
    }
    r[i] &= k[i];
  }
}

void Allocation::ClearBackendRow(size_t b) {
  assert(b < num_backends_);
  uint64_t* r = row(b);
  for (size_t w = 0; w < words_per_backend_; ++w) {
    uint64_t removed = r[w];
    while (removed != 0) {
      --replica_count_[w * 64 + __builtin_ctzll(removed)];
      removed &= removed - 1;
    }
    r[w] = 0;
  }
  for (size_t c = 0; c < num_reads_; ++c) read_assign_[b * num_reads_ + c] = 0.0;
  for (size_t c = 0; c < num_updates_; ++c) {
    update_assign_[b * num_updates_ + c] = 0.0;
  }
  // Exact reset: clearing a row is the one mutation that zeroes the
  // backend's aggregates outright instead of subtracting deltas.
  read_load_[b] = 0.0;
  update_load_[b] = 0.0;
  if (frag_bytes_ != nullptr) bytes_[b] = 0.0;
}

void Allocation::CopyBackendsFrom(const Allocation& src,
                                  std::span<const size_t> bs) {
  CopyAllButReadRowsFrom(src, bs);
  for (const size_t b : bs) {
    std::copy_n(src.read_assign_.data() + b * num_reads_, num_reads_,
                read_assign_.data() + b * num_reads_);
  }
}

void Allocation::CopyEditsFrom(const Allocation& src,
                               std::span<const size_t> bs,
                               std::span<const ReadCell> cells) {
  CopyAllButReadRowsFrom(src, bs);
  for (const ReadCell& cell : cells) {
    assert(cell.backend < num_backends_ && cell.read < num_reads_);
    assert(std::find(bs.begin(), bs.end(), cell.backend) != bs.end());
    const size_t i = cell.backend * num_reads_ + cell.read;
    read_assign_[i] = src.read_assign_[i];
  }
}

void Allocation::CopyAllButReadRowsFrom(const Allocation& src,
                                        std::span<const size_t> bs) {
  assert(src.num_backends_ == num_backends_ &&
         src.num_fragments_ == num_fragments_ &&
         src.num_reads_ == num_reads_ && src.num_updates_ == num_updates_ &&
         src.sizes_bound() == sizes_bound());
  for (const size_t b : bs) {
    assert(b < num_backends_);
    std::copy_n(src.row(b), words_per_backend_, row(b));
    std::copy_n(src.update_assign_.data() + b * num_updates_, num_updates_,
                update_assign_.data() + b * num_updates_);
    read_load_[b] = src.read_load_[b];
    update_load_[b] = src.update_load_[b];
    if (frag_bytes_ != nullptr) bytes_[b] = src.bytes_[b];
  }
  std::copy(src.replica_count_.begin(), src.replica_count_.end(),
            replica_count_.begin());
}

bool Allocation::IsPlaced(size_t b, FragmentId f) const {
  assert(b < num_backends_ && f < num_fragments_);
  return (row(b)[f >> 6] >> (f & 63)) & uint64_t{1};
}

FragmentSet Allocation::BackendFragments(size_t b) const {
  FragmentSet out;
  const uint64_t* r = row(b);
  for (size_t w = 0; w < words_per_backend_; ++w) {
    uint64_t bits = r[w];
    while (bits != 0) {
      out.push_back(static_cast<FragmentId>(w * 64 + __builtin_ctzll(bits)));
      bits &= bits - 1;
    }
  }
  return out;
}

void Allocation::SnapshotRow(size_t b, DenseBitset* out) const {
  out->AssignWords(row(b), words_per_backend_, num_fragments_);
}

bool Allocation::HoldsAll(size_t b, const FragmentSet& set) const {
  for (FragmentId f : set) {
    if (!IsPlaced(b, f)) return false;
  }
  return true;
}

bool Allocation::HoldsAny(size_t b, const FragmentSet& set) const {
  for (FragmentId f : set) {
    if (IsPlaced(b, f)) return true;
  }
  return false;
}

bool Allocation::HoldsAllBits(size_t b, ConstBitSpan set) const {
  assert(set.num_bits() == num_fragments_);
  return !simd::AnyAndNot(set.words(), row(b), words_per_backend_);
}

bool Allocation::RowIntersects(size_t b, ConstBitSpan set) const {
  assert(set.num_bits() == num_fragments_);
  return simd::AnyAnd(set.words(), row(b), words_per_backend_);
}

size_t Allocation::ReplicaCount(FragmentId f) const {
  assert(f < num_fragments_);
  return replica_count_[f];
}

double Allocation::BackendBytes(size_t b, const FragmentCatalog& catalog) const {
  if (frag_bytes_ != nullptr) {
    assert(catalog.size() == num_fragments_);
    (void)catalog;
    return bytes_[b];
  }
  double total = 0.0;
  for (FragmentId f = 0; f < num_fragments_; ++f) {
    if (IsPlaced(b, f)) total += catalog.Get(f).size_bytes;
  }
  return total;
}

double Allocation::MissingBytes(size_t b, ConstBitSpan want) const {
  assert(frag_bytes_ != nullptr && want.num_bits() == num_fragments_);
  const uint64_t* r = row(b);
  const uint64_t* w = want.words();
  double total = 0.0;
  // Word-skip prepass; words with no missing bits contribute no adds, so
  // the floating-point summation order is unchanged.
  for (size_t i = simd::FindAndNot(w, r, 0, words_per_backend_);
       i < words_per_backend_;
       i = simd::FindAndNot(w, r, i + 1, words_per_backend_)) {
    uint64_t missing = w[i] & ~r[i];
    while (missing != 0) {
      total += frag_size(
          static_cast<FragmentId>(i * 64 + __builtin_ctzll(missing)));
      missing &= missing - 1;
    }
  }
  return total;
}

double Allocation::read_assign(size_t b, size_t read_class) const {
  assert(b < num_backends_ && read_class < num_reads_);
  return read_assign_[b * num_reads_ + read_class];
}

void Allocation::set_read_assign(size_t b, size_t read_class, double value) {
  assert(b < num_backends_ && read_class < num_reads_);
  double& slot = read_assign_[b * num_reads_ + read_class];
  read_load_[b] += value - slot;
  slot = value;
}

void Allocation::add_read_assign(size_t b, size_t read_class, double delta) {
  assert(b < num_backends_ && read_class < num_reads_);
  read_assign_[b * num_reads_ + read_class] += delta;
  read_load_[b] += delta;
}

double Allocation::update_assign(size_t b, size_t update_class) const {
  assert(b < num_backends_ && update_class < num_updates_);
  return update_assign_[b * num_updates_ + update_class];
}

void Allocation::set_update_assign(size_t b, size_t update_class, double value) {
  assert(b < num_backends_ && update_class < num_updates_);
  double& slot = update_assign_[b * num_updates_ + update_class];
  update_load_[b] += value - slot;
  slot = value;
}

double Allocation::AssignedLoad(size_t b) const {
  return AssignedReadLoad(b) + AssignedUpdateLoad(b);
}

double Allocation::AssignedReadLoad(size_t b) const {
  assert(b < num_backends_);
  return read_load_[b];
}

double Allocation::AssignedUpdateLoad(size_t b) const {
  assert(b < num_backends_);
  return update_load_[b];
}

double Allocation::TotalReadAssign(size_t read_class) const {
  double total = 0.0;
  for (size_t b = 0; b < num_backends_; ++b) total += read_assign(b, read_class);
  return total;
}

std::string Allocation::ToString(const Classification& cls) const {
  std::string out = "Allocation over " + std::to_string(num_backends_) +
                    " backends\n";
  for (size_t b = 0; b < num_backends_; ++b) {
    out += "  B" + std::to_string(b + 1) + ": load=" +
           FormatPercent(AssignedLoad(b)) + " [";
    std::vector<std::string> parts;
    for (size_t r = 0; r < num_reads_; ++r) {
      if (read_assign(b, r) > 0.0) {
        parts.push_back(cls.reads[r].label + "=" +
                        FormatPercent(read_assign(b, r)));
      }
    }
    for (size_t u = 0; u < num_updates_; ++u) {
      if (update_assign(b, u) > 0.0) {
        parts.push_back(cls.updates[u].label + "=" +
                        FormatPercent(update_assign(b, u)));
      }
    }
    out += Join(parts, " ") + "] fragments={";
    parts.clear();
    for (FragmentId f : BackendFragments(b)) {
      parts.push_back(cls.catalog.Get(f).name);
    }
    out += Join(parts, ",") + "}\n";
  }
  return out;
}

}  // namespace qcap

#include "alloc/search_kernel.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <cmath>
#include <span>

#include "common/simd.h"
#include "common/stats.h"

namespace qcap::alloc_internal {

namespace {

/// A read "needs" a backend's copy of its closure while its share there is
/// above this (strict >, as in the collection scans).
constexpr double kPositiveShare = 1e-15;
/// A mutation draws among the shares above this (strict >).
constexpr double kDrawShare = 1e-12;

bool ContainsBackend(const std::vector<size_t>& list, size_t b) {
  for (size_t x : list) {
    if (x == b) return true;
  }
  return false;
}

/// Walks of the closure id lists of many scattered reads stall on cache
/// misses. Two-level prefetch: the CSR offsets well ahead (so the address
/// computation never stalls), then the id data itself a few reads ahead.
void PrefetchAhead(const ClassificationIndex& index, const uint32_t* reads,
                   size_t i, size_t count) {
  if (i + 16 < count) index.PrefetchReadClosureIds(reads[i + 16]);
  if (i + 8 < count) {
    __builtin_prefetch(index.read_closure_fragment_ids(reads[i + 8]).data());
    __builtin_prefetch(index.read_closure_update_ids(reads[i + 8]).data());
  }
}

// qcap-lint: hot-path begin
/// Adds (\p up) or removes one reference to each of \p ids in \p refs,
/// setting or clearing its bit in \p bits when the count leaves or
/// reaches zero.
void CountIds(uint32_t* refs, BitSpan bits, std::span<const uint32_t> ids,
              bool up) {
  if (up) {
    for (uint32_t id : ids) {
      if (refs[id]++ == 0) bits.Set(id);
    }
  } else {
    for (uint32_t id : ids) {
      assert(refs[id] > 0);
      if (--refs[id] == 0) bits.Clear(id);
    }
  }
}

/// Adds (\p up) or removes one at \p count.
void AddOne(uint32_t* count, bool up) {
  if (up) {
    ++*count;
  } else {
    assert(*count > 0);
    --*count;
  }
}

/// The read class holding the \p k-th draw candidate, given the per-read
/// \p draw counts; leaves in \p k the candidate's rank within that read.
size_t NthRead(const uint32_t* draw, size_t* k) {
  size_t r = 0;
  while (*k >= draw[r]) *k -= draw[r++];
  return r;
}
// qcap-lint: hot-path end

}  // namespace

SearchKernel::SearchKernel(const Classification& cls,
                           const ClassificationIndex& index,
                           const std::vector<BackendSpec>& backends,
                           SearchProgress* progress)
    : cls_(cls),
      index_(index),
      backends_(backends),
      progress_(progress),
      closer_(cls) {
  positive_scratch_.resize(cls.reads.size());
  base_norm_.resize(backends.size());
  base_bytes_.resize(backends.size());
  frag_words_ = (cls.catalog.size() + 63) / 64;
  upd_words_ = (cls.updates.size() + 63) / 64;
  relative_load_.reserve(backends.size());
  for (const BackendSpec& spec : backends) {
    relative_load_.push_back(spec.relative_load);
  }
}

// The region below is the search's innermost machinery: full/delta cost
// evaluation and per-backend collection run once per trial, millions of
// times per allocation. Convention (CHANGES.md PR 3): zero steady-state
// heap allocation — scratch is sized in the constructor and reused.
// qcap-lint: hot-path begin

SolutionCost SearchKernel::Evaluate(const Allocation& a) const {
  assert(a.sizes_bound());
  if (progress_ != nullptr) {
    progress_->evaluations.fetch_add(1, std::memory_order_relaxed);
  }
  // Byte total: sequential scalar adds in ascending backend order — the sum
  // must not be reassociated (SolutionCost::Better compares at 1e-6).
  double stored = 0.0;
  const std::span<const double> bytes_col = a.BackendBytesColumn();
  for (size_t b = 0; b < a.num_backends(); ++b) stored += bytes_col[b];
  // Scale: max over (read+update)/relative — element-wise IEEE ops and an
  // order-independent max reduction, so the SIMD kernel is bit-identical.
  const double max_norm = simd::MaxRatio(
      a.ReadLoadColumn().data(), a.UpdateLoadColumn().data(),
      relative_load_.data(), a.num_backends());
  SolutionCost cost{std::max(1.0, max_norm), stored};
  if (progress_ != nullptr) progress_->RecordScale(cost.scale);
  return cost;
}

void SearchKernel::ApplyCollected(Allocation* a, size_t b, ConstBitSpan needed,
                                  ConstBitSpan pinned) {
  a->RetainFragments(b, needed);
  a->PlaceBits(b, needed);
  // Only pins whose stored value changes bit for bit are written. A skipped
  // write would have added w - w = +0.0 (w a finite class weight or 0.0) to
  // the backend's update load, a no-op unless the load is -0.0; it never
  // is: it starts at +0.0, and in round-to-nearest x + y is -0.0 only when
  // x and y both are.
  assert(!(a->AssignedUpdateLoad(b) == 0.0 &&
           std::signbit(a->AssignedUpdateLoad(b))));
  for (size_t u = 0; u < cls_.updates.size(); ++u) {
    const double w = pinned.Test(u) ? cls_.updates[u].weight : 0.0;
    if (std::bit_cast<uint64_t>(w) !=
        std::bit_cast<uint64_t>(a->update_assign(b, u))) {
      a->set_update_assign(b, u, w);
    }
  }
}

void SearchKernel::GarbageCollect(Allocation* a) {
  CountShares(*a, &gc_counts_);
  CollectAll(a, gc_counts_);
}

void SearchKernel::CollectCounted(Allocation* a, const ShareCounts& counts,
                                  const size_t* bs, size_t count,
                                  std::vector<size_t>* touched) {
  touched->clear();
  for (size_t i = 0; i < count; ++i) {
    const size_t b = bs[i];
    ApplyCollected(a, b, NeededBits(counts, b), PinnedBits(counts, b));
    // qcap-lint: allow(hot-path-growth) -- touched holds <= num_backends entries; capacity is reached on the first call and reused
    if (!ContainsBackend(*touched, b)) touched->push_back(b);
  }
  closer_.PlaceOrphans(a, touched);
}

void SearchKernel::CollectAll(Allocation* a, const ShareCounts& counts) {
  for (size_t b = 0; b < a->num_backends(); ++b) {
    ApplyCollected(a, b, NeededBits(counts, b), PinnedBits(counts, b));
  }
  closer_.PlaceOrphans(a, nullptr);
}

void SearchKernel::AddShare(Allocation* a, ShareCounts* counts, size_t b,
                            size_t r, double delta) {
  EditShare(a, counts, b, r, delta);
}

void SearchKernel::AddTrialShare(Allocation* a, ShareCounts* counts,
                                 size_t b, size_t r, double delta) {
  const Crossing c = EditShare(a, counts, b, r, delta);
  if (c.refs == 0 && c.draw == 0) return;
  // qcap-lint: allow(hot-path-growth) -- a memetic trial logs at most 2R crossings, the capacity ReserveTrialLog reserves; the log is cleared, not freed, per trial
  crossings_.push_back(c);
}

SearchKernel::Crossing SearchKernel::EditShare(Allocation* a,
                                               ShareCounts* counts, size_t b,
                                               size_t r, double delta) {
  const double was = a->read_assign(b, r);
  a->add_read_assign(b, r, delta);
  const double now = a->read_assign(b, r);
  const Crossing c{
      static_cast<uint32_t>(b), static_cast<uint32_t>(r),
      static_cast<int8_t>((now > kPositiveShare) - (was > kPositiveShare)),
      static_cast<int8_t>((now > kDrawShare) - (was > kDrawShare))};
  if (c.refs != 0 || c.draw != 0) ApplyCrossing(counts, c, /*undo=*/false);
  return c;
}

void SearchKernel::ApplyCrossing(ShareCounts* counts, const Crossing& c,
                                 bool undo) {
  if (c.refs != 0) CountRead(counts, c.backend, c.read, (c.refs > 0) != undo);
  if (c.draw != 0) {
    const bool up = (c.draw > 0) != undo;
    AddOne(counts->counts.data() + DrawAt(c.read), up);
    if (up) {
      ++counts->draw_total;
    } else {
      --counts->draw_total;
    }
  }
}

void SearchKernel::AcceptTrial(ShareCounts* member) {
  for (const Crossing& c : crossings_) ApplyCrossing(member, c, false);
  crossings_.clear();
}

void SearchKernel::RejectTrial(ShareCounts* counts) {
  for (size_t i = crossings_.size(); i > 0; --i) {
    ApplyCrossing(counts, crossings_[i - 1], /*undo=*/true);
  }
  crossings_.clear();
}

void SearchKernel::CopyCountRows(const ShareCounts& src,
                                 std::span<const size_t> bs,
                                 ShareCounts* dst) const {
  assert(dst->counts.size() == src.counts.size() &&
         dst->bits.size() == src.bits.size());
  const size_t F = cls_.catalog.size();
  const size_t U = cls_.updates.size();
  const uint32_t* from = src.counts.data();
  uint32_t* to = dst->counts.data();
  for (const size_t b : bs) {
    std::copy_n(from + FragRefsAt(b), F, to + FragRefsAt(b));
    std::copy_n(from + UpdRefsAt(b), U, to + UpdRefsAt(b));
    std::copy_n(src.bits.data() + NeededAt(b), frag_words_,
                dst->bits.data() + NeededAt(b));
    std::copy_n(src.bits.data() + PinnedAt(b), upd_words_,
                dst->bits.data() + PinnedAt(b));
  }
  std::copy(from + DrawAt(0), from + src.counts.size(), to + DrawAt(0));
  dst->draw_total = src.draw_total;
}

void SearchKernel::NthShare(const Allocation& a, const ShareCounts& counts,
                            size_t k, size_t* r, size_t* b) const {
  assert(k < counts.draw_total);
  const size_t read = NthRead(counts.counts.data() + DrawAt(0), &k);
  size_t backend = 0;
  for (;; ++backend) {
    if (a.read_assign(backend, read) > kDrawShare && k-- == 0) break;
  }
  *r = read;
  *b = backend;
}

void SearchKernel::CountRead(ShareCounts* counts, size_t b, size_t r,
                             bool up) {
  const std::span<const uint32_t> frag_ids =
      index_.read_closure_fragment_ids(r);
  const std::span<const uint32_t> upd_ids = index_.read_closure_update_ids(r);
  uint32_t* refs = counts->counts.data();
  CountIds(refs + FragRefsAt(b), NeededBits(counts, b), frag_ids, up);
  CountIds(refs + UpdRefsAt(b), PinnedBits(counts, b), upd_ids, up);
}

void SearchKernel::BeginDelta(const Allocation& base, SolutionCost base_cost) {
  const size_t n = base.num_backends();
  base_bytes_total_ = base_cost.bytes;
  // Element-wise (read+update)/relative into the cache — exact IEEE ops per
  // lane, so the SIMD path matches the scalar loop bit for bit.
  simd::Ratios(base.ReadLoadColumn().data(), base.UpdateLoadColumn().data(),
               relative_load_.data(), base_norm_.data(), n);
  if (base.sizes_bound()) {
    const std::span<const double> bytes_col = base.BackendBytesColumn();
    std::copy(bytes_col.begin(), bytes_col.end(), base_bytes_.begin());
  } else {
    for (size_t b = 0; b < n; ++b) {
      base_bytes_[b] = base.BackendBytes(b, cls_.catalog);
    }
  }
  // Top-3 loaded backends: EvaluateDelta needs the max base load over the
  // untouched backends, and trials touch 2 backends plus the occasional
  // orphan target, so three candidates almost always suffice.
  top_count_ = 0;
  for (size_t b = 0; b < n; ++b) {
    const double v = base_norm_[b];
    size_t k = top_count_ < 3 ? top_count_ : 3;
    while (k > 0 && v > top_val_[k - 1]) --k;
    if (k >= 3) continue;
    for (size_t j = std::min<size_t>(top_count_, 2); j > k; --j) {
      top_val_[j] = top_val_[j - 1];
      top_idx_[j] = top_idx_[j - 1];
    }
    top_val_[k] = v;
    top_idx_[k] = b;
    if (top_count_ < 3) ++top_count_;
  }
}

SolutionCost SearchKernel::EvaluateDelta(
    const Allocation& trial, const std::vector<size_t>& touched) const {
  if (progress_ != nullptr) {
    progress_->evaluations.fetch_add(1, std::memory_order_relaxed);
  }
  double bytes = base_bytes_total_;
  double scale = 1.0;
  for (size_t b : touched) {
    bytes += trial.BackendBytes(b, cls_.catalog) - base_bytes_[b];
    scale = std::max(scale,
                     trial.AssignedLoad(b) / backends_[b].relative_load);
  }
  bool found = false;
  for (size_t k = 0; k < top_count_; ++k) {
    if (!ContainsBackend(touched, top_idx_[k])) {
      scale = std::max(scale, top_val_[k]);
      found = true;
      break;
    }
  }
  if (!found && trial.num_backends() > touched.size()) {
    // Every cached top backend was touched: one fallback scan.
    for (size_t b = 0; b < trial.num_backends(); ++b) {
      if (!ContainsBackend(touched, b)) scale = std::max(scale, base_norm_[b]);
    }
  }
  SolutionCost cost{scale, bytes};
  if (progress_ != nullptr) progress_->RecordScale(cost.scale);
  return cost;
}

// qcap-lint: hot-path end

void SearchKernel::ReserveTrialLog() {
  crossings_.reserve(2 * cls_.reads.size());
}

void SearchKernel::CountShares(const Allocation& a, ShareCounts* counts) {
  const size_t B = a.num_backends();
  const size_t R = cls_.reads.size();
  assert(B == backends_.size());
  counts->counts.assign(DrawAt(R), 0);
  counts->bits.assign(PinnedAt(B), 0);
  counts->draw_total = 0;
  for (size_t b = 0; b < B; ++b) {
    const std::span<const double> assign_row = a.ReadAssignRow(b);
    const size_t positives = simd::CollectAbove(
        assign_row.data(), assign_row.size(), kPositiveShare,
        positive_scratch_.data());
    for (size_t i = 0; i < positives; ++i) {
      PrefetchAhead(index_, positive_scratch_.data(), i, positives);
      CountRead(counts, b, positive_scratch_[i], /*up=*/true);
    }
    for (size_t r = 0; r < R; ++r) {
      if (assign_row[r] > kDrawShare) {
        ApplyCrossing(counts, Crossing{static_cast<uint32_t>(b),
                                       static_cast<uint32_t>(r), 0, 1},
                      /*undo=*/false);
      }
    }
  }
}

}  // namespace qcap::alloc_internal

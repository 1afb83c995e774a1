#include "alloc/allocator.h"

#include <algorithm>
#include <limits>
#include <span>

#include "common/simd.h"

namespace qcap::alloc_internal {

void BundleScores::Score(const Allocation& alloc, ConstBitSpan bundle) {
  const size_t n = missing_.size();
  std::fill(missing_.begin(), missing_.end(), 0.0);
  std::fill(holds_.begin(), holds_.end(), uint8_t{1});
  const double* size = alloc.FragmentSizes().data();
  const uint64_t* want = bundle.words();
  for (size_t i = 0; i < bundle.num_words(); ++i) {
    if (want[i] == 0) continue;
    const double* word_size = size + i * 64;
    for (size_t b = 0; b < n; ++b) {
      uint64_t lack = want[i] & ~alloc.RowBits(b).words()[i];
      if (lack == 0) continue;
      holds_[b] = 0;
      double sum = missing_[b];
      do {
        sum += word_size[__builtin_ctzll(lack)];
        lack &= lack - 1;
      } while (lack != 0);
      missing_[b] = sum;
    }
  }
}

UpdateCloser::UpdateCloser(const Classification& cls)
    : cls_(cls),
      words_((cls.catalog.size() + 63) / 64),
      update_bits_(cls.updates.size() * words_),
      updates_off_(cls.catalog.size() + 1),
      fresh_(words_) {
  // Fragment -> update classes (ascending): count, prefix sum, fill.
  const size_t F = cls.catalog.size();
  for (const QueryClass& u : cls.updates) {
    for (FragmentId f : u.fragments) ++updates_off_[f + 1];
  }
  for (size_t f = 0; f < F; ++f) updates_off_[f + 1] += updates_off_[f];
  updates_of_.resize(updates_off_[F]);
  std::vector<size_t> cursor(updates_off_.begin(), updates_off_.end() - 1);
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    uint64_t* row = update_bits_.data() + u * words_;
    for (FragmentId f : cls.updates[u].fragments) {
      row[f >> 6] |= uint64_t{1} << (f & 63);
      updates_of_[cursor[f]++] = u;
    }
  }
  // A round queues each (fresh fragment, update class) pair at most once.
  due_.reserve(updates_of_.size());
}

// PlaceAndClose runs once per memetic mutation and local-search move, and
// PlaceOrphans once per collection: no heap allocation here (scratch is
// sized in the constructor).
// qcap-lint: hot-path begin

bool UpdateCloser::MarkFresh(const Allocation& alloc, size_t b,
                             ConstBitSpan bits) {
  const uint64_t* row = alloc.RowBits(b).words();
  const uint64_t* w = bits.words();
  uint64_t any = 0;
  for (size_t i = 0; i < fresh_.size(); ++i) {
    const uint64_t fresh = w[i] & ~row[i];
    fresh_[i] |= fresh;
    any |= fresh;
  }
  return any != 0;
}

double UpdateCloser::PlaceAndClose(size_t b, ConstBitSpan bits,
                                   Allocation* alloc) {
  const bool grew = MarkFresh(*alloc, b, bits);
  alloc->PlaceBits(b, bits);
  return grew ? CloseFresh(b, alloc) : 0.0;
}

double UpdateCloser::CloseFresh(size_t b, Allocation* alloc) {
  double added = 0.0;
  bool grew = true;
  while (grew) {
    // The row was closed before this round's bits arrived, so a class that
    // overlaps the row now and is unpinned overlaps those bits.
    for (size_t i = 0; i < fresh_.size(); ++i) {
      for (uint64_t word = fresh_[i]; word != 0; word &= word - 1) {
        const size_t f = i * 64 + __builtin_ctzll(word);
        for (size_t k = updates_off_[f]; k < updates_off_[f + 1]; ++k) {
          const size_t u = updates_of_[k];
          // qcap-lint: allow(hot-path-growth) -- at most one entry per (fragment, class) pair a round, the capacity the constructor reserves
          if (alloc->update_assign(b, u) <= 0.0) due_.push_back(u);
        }
      }
    }
    std::sort(due_.begin(), due_.end());
    due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
    std::fill(fresh_.begin(), fresh_.end(), uint64_t{0});
    grew = false;
    for (size_t u : due_) {
      grew |= MarkFresh(*alloc, b, UpdateBits(u));
      alloc->PlaceBits(b, UpdateBits(u));
      alloc->set_update_assign(b, u, cls_.updates[u].weight);
      added += cls_.updates[u].weight;
    }
    due_.clear();
  }
  return added;
}

void UpdateCloser::PlaceOrphans(Allocation* alloc,
                                std::vector<size_t>* touched) {
  // Orphan scan: first zero in the contiguous replica-count column (SIMD
  // word-skip; ascending like a scalar f-loop). In the common case, no
  // orphans, this is one streaming pass.
  const std::span<const uint32_t> replicas = alloc->ReplicaCounts();
  const size_t F = alloc->num_fragments();
  const bool bound = alloc->sizes_bound();
  for (size_t f = simd::FindZeroU32(replicas.data(), 0, F); f < F;
       f = simd::FindZeroU32(replicas.data(), f + 1, F)) {
    size_t target = 0;
    if (bound) {
      // First-minimum over the byte column: a min reduction plus a
      // first-equal scan, identical to the scalar first-strict-less pick.
      target = simd::Argmin(alloc->BackendBytesColumn().data(),
                            alloc->num_backends());
    } else {
      double target_bytes = std::numeric_limits<double>::infinity();
      for (size_t b = 0; b < alloc->num_backends(); ++b) {
        const double bytes = alloc->BackendBytes(b, cls_.catalog);
        if (bytes < target_bytes) {
          target_bytes = bytes;
          target = b;
        }
      }
    }
    alloc->Place(target, static_cast<FragmentId>(f));
    if (updates_off_[f] != updates_off_[f + 1]) {
      fresh_[f >> 6] |= uint64_t{1} << (f & 63);
      CloseFresh(target, alloc);
    }
    if (touched != nullptr &&
        std::find(touched->begin(), touched->end(), target) ==
            touched->end()) {
      // qcap-lint: allow(hot-path-growth) -- touched holds <= num_backends entries; capacity is reached on the first call and reused
      touched->push_back(target);
    }
  }
}

// qcap-lint: hot-path end

}  // namespace qcap::alloc_internal

#include "alloc/allocator.h"

#include <algorithm>
#include <limits>

namespace qcap::alloc_internal {

double CloseUpdatesOnBackend(const Classification& cls, size_t b,
                             Allocation* alloc) {
  double added = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    FragmentSet frags = alloc->BackendFragments(b);
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      if (alloc->update_assign(b, u) > 0.0) continue;
      if (Intersects(cls.updates[u].fragments, frags)) {
        const double w = cls.updates[u].weight;
        // A zero-weight class still reads as unpinned after this pin, so
        // only new fragments or a positive pin call for another pass.
        if (w > 0.0 || !alloc->HoldsAll(b, cls.updates[u].fragments)) {
          changed = true;
        }
        alloc->PlaceSet(b, cls.updates[u].fragments);
        alloc->set_update_assign(b, u, w);
        added += w;
      }
    }
  }
  return added;
}

double CloseUpdatesOnBackend(const Classification& cls,
                             const ClassificationIndex& index, size_t b,
                             Allocation* alloc, DenseBitset* row_scratch) {
  double added = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    alloc->SnapshotRow(b, row_scratch);
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      if (alloc->update_assign(b, u) > 0.0) continue;
      if (Intersects(index.update_bits(u), *row_scratch)) {
        const double w = cls.updates[u].weight;
        if (w > 0.0 || !alloc->HoldsAllBits(b, index.update_bits(u))) {
          changed = true;
        }
        alloc->PlaceBits(b, index.update_bits(u));
        alloc->set_update_assign(b, u, w);
        added += w;
      }
    }
  }
  return added;
}

void CloseUpdatesEverywhere(const Classification& cls, Allocation* alloc) {
  for (size_t b = 0; b < alloc->num_backends(); ++b) {
    CloseUpdatesOnBackend(cls, b, alloc);
  }
}

void PlaceOrphanFragments(const Classification& cls, Allocation* alloc) {
  for (FragmentId f = 0; f < alloc->num_fragments(); ++f) {
    if (alloc->ReplicaCount(f) > 0) continue;
    // Prefer a backend where storing f creates no new update obligation.
    size_t target = alloc->num_backends();
    double target_bytes = std::numeric_limits<double>::infinity();
    bool fragment_updated = false;
    for (const auto& u : cls.updates) {
      if (Contains(u.fragments, f)) {
        fragment_updated = true;
        break;
      }
    }
    for (size_t b = 0; b < alloc->num_backends(); ++b) {
      const double bytes = alloc->BackendBytes(b, cls.catalog);
      if (bytes < target_bytes) {
        target_bytes = bytes;
        target = b;
      }
    }
    alloc->Place(target, f);
    if (fragment_updated) {
      CloseUpdatesOnBackend(cls, target, alloc);
    }
  }
}

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

UpdateCloser::UpdateCloser(const Classification& cls,
                           const ClassificationIndex& index)
    : cls_(cls), index_(index), fresh_((index.num_fragments() + 63) / 64) {
  due_.reserve(cls.updates.size());
}

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
  std::fill(fresh_.begin(), fresh_.end(), uint64_t{0});
  bool grew = MarkFresh(*alloc, b, bits);
  alloc->PlaceBits(b, bits);
  double added = 0.0;
  while (grew) {
    // The row was closed before this round's bits arrived, so a class that
    // overlaps the row now and is unpinned overlaps those bits.
    for (size_t i = 0; i < fresh_.size(); ++i) {
      for (uint64_t word = fresh_[i]; word != 0; word &= word - 1) {
        const auto f =
            static_cast<FragmentId>(i * 64 + __builtin_ctzll(word));
        for (size_t u : index_.updates_of_fragment(f)) {
          if (alloc->update_assign(b, u) <= 0.0) due_.push_back(u);
        }
      }
    }
    std::sort(due_.begin(), due_.end());
    due_.erase(std::unique(due_.begin(), due_.end()), due_.end());
    std::fill(fresh_.begin(), fresh_.end(), uint64_t{0});
    grew = false;
    for (size_t u : due_) {
      grew |= MarkFresh(*alloc, b, index_.update_bits(u));
      alloc->PlaceBits(b, index_.update_bits(u));
      alloc->set_update_assign(b, u, cls_.updates[u].weight);
      added += cls_.updates[u].weight;
    }
    due_.clear();
  }
  return added;
}

}  // namespace qcap::alloc_internal

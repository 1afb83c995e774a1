#include "alloc/allocator.h"

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
        alloc->PlaceSet(b, cls.updates[u].fragments);
        alloc->set_update_assign(b, u, cls.updates[u].weight);
        added += cls.updates[u].weight;
        changed = true;
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
        alloc->PlaceBits(b, index.update_bits(u));
        alloc->set_update_assign(b, u, cls.updates[u].weight);
        added += cls.updates[u].weight;
        changed = true;
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

}  // namespace qcap::alloc_internal

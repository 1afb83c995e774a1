// Reference implementations of the allocation core's repairs, kept as test
// oracles: the literal rescan fixpoint of the update closure (Eq. 10), the
// scalar orphan placement (Eq. 11) and the garbage collection by closure
// union. The library keeps one faster form of each (UpdateCloser and
// SearchKernel's counted collection), documented as bit-identical to these;
// the tests hold it to that.
#pragma once

#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <vector>

#include "model/allocation.h"
#include "workload/query_class.h"

namespace qcap::testutil {

/// The update-closure rescan: each round tests every unpinned update class,
/// ascending, against the row as it stood at the round's start, and pins
/// the ones that overlap it (their fragments, then their weight). A round
/// that adds no fragment and pins no positive weight ends the loop (a
/// zero-weight class never reads as pinned). Returns the weight pinned.
inline double RescanClose(const Classification& cls, size_t b,
                          Allocation* alloc) {
  double added = 0.0;
  bool changed = true;
  while (changed) {
    changed = false;
    const FragmentSet frags = alloc->BackendFragments(b);
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      if (alloc->update_assign(b, u) > 0.0) continue;
      if (!Intersects(cls.updates[u].fragments, frags)) continue;
      const double w = cls.updates[u].weight;
      if (w > 0.0 || !alloc->HoldsAll(b, cls.updates[u].fragments)) {
        changed = true;
      }
      alloc->PlaceSet(b, cls.updates[u].fragments);
      alloc->set_update_assign(b, u, w);
      added += w;
    }
  }
  return added;
}

/// Orphan placement: every fragment stored nowhere, ascending, goes to the
/// first backend storing the fewest bytes, which is then closed with
/// RescanClose when an update class references the fragment. Appends each
/// target to \p touched (when non-null) unless it is listed already.
inline void ReferencePlaceOrphans(const Classification& cls, Allocation* alloc,
                                  std::vector<size_t>* touched) {
  for (FragmentId f = 0; f < alloc->num_fragments(); ++f) {
    if (alloc->ReplicaCount(f) > 0) continue;
    size_t target = 0;
    double target_bytes = std::numeric_limits<double>::infinity();
    for (size_t b = 0; b < alloc->num_backends(); ++b) {
      const double bytes = alloc->BackendBytes(b, cls.catalog);
      if (bytes < target_bytes) {
        target_bytes = bytes;
        target = b;
      }
    }
    alloc->Place(target, f);
    bool updated = false;
    for (const QueryClass& u : cls.updates) {
      updated = updated || Contains(u.fragments, f);
    }
    if (updated) RescanClose(cls, target, alloc);
    if (touched != nullptr) {
      bool listed = false;
      for (size_t x : *touched) listed = listed || x == target;
      if (!listed) touched->push_back(target);
    }
  }
}

/// Collection by closure union: each backend of \p bs keeps the union of
/// the closures of its reads with a share above 1e-15 (each read's own bits
/// and the rows of its overlap components) and pins exactly the update
/// classes of their closures (writing only the pins whose stored
/// value changes bit for bit), then orphans are placed. \p touched is
/// cleared and receives the collected backends, then the orphan targets.
inline void UnionCollect(const Classification& cls,
                         const ClassificationIndex& index, Allocation* a,
                         const size_t* bs, size_t count,
                         std::vector<size_t>* touched) {
  touched->clear();
  DenseBitset needed(cls.catalog.size());
  DenseBitset pinned(cls.updates.size());
  for (size_t i = 0; i < count; ++i) {
    const size_t b = bs[i];
    needed.ClearAll();
    pinned.ClearAll();
    for (size_t r = 0; r < cls.reads.size(); ++r) {
      if (!(a->read_assign(b, r) > 1e-15)) continue;
      needed.UnionWith(index.read_bits(r));
      for (uint32_t c : index.read_components(r)) {
        needed.UnionWith(index.component_fragments(c));
        pinned.UnionWith(index.component_updates(c));
      }
    }
    a->RetainFragments(b, needed);
    a->PlaceBits(b, needed);
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      const double w = pinned.Test(u) ? cls.updates[u].weight : 0.0;
      if (std::bit_cast<uint64_t>(w) !=
          std::bit_cast<uint64_t>(a->update_assign(b, u))) {
        a->set_update_assign(b, u, w);
      }
    }
    bool listed = false;
    for (size_t x : *touched) listed = listed || x == b;
    if (!listed) touched->push_back(b);
  }
  ReferencePlaceOrphans(cls, a, touched);
}

/// UnionCollect of every backend.
inline void UnionGarbageCollect(const Classification& cls,
                                const ClassificationIndex& index,
                                Allocation* a) {
  std::vector<size_t> all(a->num_backends());
  for (size_t b = 0; b < all.size(); ++b) all[b] = b;
  std::vector<size_t> touched;
  UnionCollect(cls, index, a, all.data(), all.size(), &touched);
}

}  // namespace qcap::testutil

#include "alloc/random_allocator.h"

#include <algorithm>
#include <vector>

#include "common/random.h"

namespace qcap {

Result<Allocation> RandomAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());

  const size_t n = backends.size();
  Allocation alloc(n, cls.catalog.size(), cls.reads.size(), cls.updates.size());
  Rng rng(seed_);

  // Each backend's fragments are gathered first and placed in one
  // PlaceAndClose onto the empty (so closed) row.
  std::vector<DenseBitset> rows(n, DenseBitset(cls.catalog.size()));
  const auto place = [&rows](size_t b, const FragmentSet& set) {
    for (FragmentId f : set) rows[b].Set(f);
  };
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    const size_t b = static_cast<size_t>(rng.NextBounded(n));
    place(b, cls.reads[r].fragments);
    alloc.set_read_assign(b, r, cls.reads[r].weight);
  }
  // Update classes not touched by any read still need a home.
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    const FragmentSet& frags = cls.updates[u].fragments;
    bool placed_anywhere = false;
    for (size_t b = 0; b < n && !placed_anywhere; ++b) {
      placed_anywhere = std::any_of(frags.begin(), frags.end(),
                                    [&](FragmentId f) { return rows[b].Test(f); });
    }
    if (!placed_anywhere) place(static_cast<size_t>(rng.NextBounded(n)), frags);
  }
  alloc_internal::UpdateCloser closer(cls);
  for (size_t b = 0; b < n; ++b) closer.PlaceAndClose(b, rows[b], &alloc);
  closer.PlaceOrphans(&alloc, nullptr);
  return alloc;
}

}  // namespace qcap

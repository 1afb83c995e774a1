#include "alloc/greedy.h"

#include <algorithm>
#include <cmath>
#include <limits>

#ifdef QCAP_GREEDY_TRACE
#include <cstdio>
#endif

namespace qcap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// A class pending allocation: index into reads (is_update=false) or
/// updates (is_update=true) of the classification.
struct Pending {
  size_t index = 0;
  bool is_update = false;
};

}  // namespace

Result<Allocation> GreedyAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());

  const size_t n = backends.size();
  const double eps = options_.epsilon;
  // The index memoizes overlaps, bundles and their byte sizes with the same
  // accumulation orders as the Classification helpers, so every comparison
  // below is bitwise identical to the unindexed implementation.
  const ClassificationIndex index(cls);
  Allocation alloc(n, cls.catalog, cls.reads.size(), cls.updates.size());

  // Line 1: C* = CQ ∪ {CU with no overlapping read class}.
  std::vector<Pending> queue;
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    queue.push_back(Pending{r, false});
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    if (index.reads_overlapping_update(u).empty()) {
      queue.push_back(Pending{u, true});
    }
  }

  auto class_of = [&](const Pending& p) -> const QueryClass& {
    return p.is_update ? cls.updates[p.index] : cls.reads[p.index];
  };
  auto class_bits = [&](const Pending& p) -> ConstBitSpan {
    return p.is_update ? index.update_bits(p.index) : index.read_bits(p.index);
  };
  auto overlap_weight = [&](const Pending& p) {
    return p.is_update ? index.update_overlapping_update_weight(p.index)
                       : index.read_overlapping_update_weight(p.index);
  };
  auto bundle_weight = [&](const Pending& p) {
    // weight(C ∪ updates(C)): the class's own weight plus all overlapping
    // update classes (for an update class this includes itself once).
    double w = overlap_weight(p);
    if (!p.is_update) w += class_of(p).weight;
    return w;
  };
  auto bundle_size = [&](const Pending& p) {
    return p.is_update ? index.update_bundle_bytes(p.index)
                       : index.read_bundle_bytes(p.index);
  };
  auto bundle_bits = [&](const Pending& p) -> ConstBitSpan {
    return p.is_update ? index.update_bundle_bits(p.index)
                       : index.read_bundle_bits(p.index);
  };

  // Line 2: initial sort, descending weight x size.
  std::stable_sort(queue.begin(), queue.end(),
                   [&](const Pending& a, const Pending& b) {
                     return bundle_weight(a) * bundle_size(a) >
                            bundle_weight(b) * bundle_size(b);
                   });

  // Lines 3-5: auxiliary state.
  std::vector<double> current_load(n, 0.0);
  std::vector<double> scaled_load(n);
  for (size_t b = 0; b < n; ++b) scaled_load[b] = backends[b].relative_load;
  std::vector<double> rest_weight(cls.reads.size());
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    rest_weight[r] = cls.reads[r].weight;
  }
  DenseBitset row_scratch(cls.catalog.size());

  size_t max_iters = options_.max_iterations;
  if (max_iters == 0) {
    max_iters = 64 * (queue.size() + 1) * (n + 1) + 1024;
  }
  size_t iters = 0;

  // Line 33 re-sorts the pending classes after every placement, descending
  // remaining weight (including co-allocated updates) x size. Before any
  // split this is Line 2's key bit for bit (rest_weight is the weight), and
  // a placement changes only the popped class's key, so the rest of the
  // queue stays sorted: a re-pushed class is requeued at its place
  // (alloc_internal::RequeueOrdered), which is the re-sort's order.
  const auto heavier = [&](const Pending& a, const Pending& b) {
    const double wa = a.is_update ? bundle_weight(a)
                                  : rest_weight[a.index] + overlap_weight(a);
    const double wb = b.is_update ? bundle_weight(b)
                                  : rest_weight[b.index] + overlap_weight(b);
    return wa * bundle_size(a) > wb * bundle_size(b);
  };
  std::vector<double> difference(n);
  size_t head = 0;  // queue[0, head) has been popped

  // Line 6: main loop.
  while (head < queue.size()) {
    if (++iters > max_iters) {
      return Status::Internal("greedy allocation did not converge");
    }
    const Pending p = queue[head++];
    const QueryClass& c = class_of(p);

    // Lines 7-9: if all backends are full, scale every backend so it can
    // take its relative share of this class.
    bool all_full = true;
    for (size_t b = 0; b < n; ++b) {
      if (current_load[b] < scaled_load[b] - eps) {
        all_full = false;
        break;
      }
    }
    if (all_full) {
      const double w = p.is_update ? c.weight : cls.reads[p.index].weight;
      for (size_t b = 0; b < n; ++b) {
        scaled_load[b] = current_load[b] + backends[b].relative_load * w;
      }
    }

    // Lines 10-16: difference to each backend, with one refinement over
    // the paper's pseudo-code: before replicating a read class's update
    // bundle onto a new backend, compare against finishing the class on a
    // backend that already holds the bundle. If the holder would end up at
    // a lower relative load than the new backend (which must additionally
    // absorb the replicated update weight), the new backend is excluded.
    // This repairs the misplacement corner case the paper reports for
    // small classes with heavy updates (Section 4.2) without hurting large
    // classes that must spread.
    const ConstBitSpan bundle = bundle_bits(p);
    double best_holder_rel = kInf;
    if (!p.is_update) {
      for (size_t b = 0; b < n; ++b) {
        if (alloc.HoldsAllBits(b, bundle)) {
          best_holder_rel = std::min(
              best_holder_rel, (current_load[b] + rest_weight[p.index]) /
                                   backends[b].relative_load);
        }
      }
    }
    for (size_t b = 0; b < n; ++b) {
      if (current_load[b] >= scaled_load[b] - eps) {
        difference[b] = kInf;
        continue;
      }
      if (!p.is_update) {
        double added_updates = 0.0;
        for (size_t u : index.read_overlapping_updates(p.index)) {
          if (alloc.update_assign(b, u) <= 0.0) {
            added_updates += cls.updates[u].weight;
          }
        }
        const double candidate_rel =
            (current_load[b] + added_updates + rest_weight[p.index]) /
            backends[b].relative_load;
        if (added_updates > 0.0 && best_holder_rel < candidate_rel - eps) {
          difference[b] = kInf;
          continue;
        }
      }
      if (current_load[b] <= eps) {
        difference[b] = 0.0;
      } else {
        difference[b] = alloc.MissingBytes(b, bundle);
      }
    }

    // Line 17: backend with minimal difference; ties go to the lowest
    // backend index (first fit). This reproduces both the Figure 2 and the
    // Appendix A traces; for heterogeneous clusters, order the backends by
    // descending capacity.
    size_t target = n;
    for (size_t b = 0; b < n; ++b) {
      if (difference[b] == kInf) continue;
      if (target == n || difference[b] < difference[target] - 1e-15) {
        target = b;
      }
    }
    if (target == n) {
      // Every backend is excluded (full, or the class's updates exceed any
      // remaining capacity). Prefer the backend that already stores the
      // class's data bundle (cheapest to overload), then the least
      // relatively loaded one; the read branch below scales it up.
      double best_missing = kInf;
      double best_rel = kInf;
      for (size_t b = 0; b < n; ++b) {
        const double missing = alloc.MissingBytes(b, bundle);
        const double rel = current_load[b] / backends[b].relative_load;
        // Relative tolerance: byte sizes are large and "equal" candidates
        // must tie so the load comparison can break the tie.
        const double tol =
            target == n ? 0.0 : 1e-9 * std::max(1.0, best_missing);
        if (target == n || missing < best_missing - tol ||
            (missing < best_missing + tol && rel < best_rel - eps)) {
          best_missing = missing;
          best_rel = rel;
          target = b;
        }
      }
    }

    // Lines 18-19: place fragments; add not-yet-allocated update load.
    alloc.PlaceBits(target, class_bits(p));
    const double added_updates = alloc_internal::CloseUpdatesOnBackend(
        cls, index, target, &alloc, &row_scratch);
    current_load[target] += added_updates;
#ifdef QCAP_GREEDY_TRACE
    std::fprintf(stderr, "pick %s -> B%zu (cur=%.3f scaled=%.3f addUpd=%.3f)\n",
                 c.label.c_str(), target + 1, current_load[target],
                 scaled_load[target], added_updates);
#endif

    if (p.is_update) {
      // Lines 20-23. (CloseUpdatesOnBackend has already pinned the class.)
      if (current_load[target] > scaled_load[target]) {
        scaled_load[target] = current_load[target];
        // Eq. 15: re-derive the other backends' scaled loads from the new
        // global scale factor.
        double scale = 0.0;
        for (size_t b = 0; b < n; ++b) {
          scale = std::max(scale, current_load[b] / backends[b].relative_load);
        }
        if (scale > 1.0) {
          for (size_t b = 0; b < n; ++b) {
            scaled_load[b] =
                std::max(scaled_load[b], backends[b].relative_load * scale);
          }
        }
      }
      // Update classes are allocated exactly once (further replicas only
      // cost throughput): drop from the queue.
    } else {
      // Lines 24-32.
      const size_t r = p.index;
      if (current_load[target] >= scaled_load[target] - eps) {
        scaled_load[target] = current_load[target] +
                              backends[target].relative_load * c.weight;
      }
      const double room = scaled_load[target] - current_load[target];
      if (rest_weight[r] > room + eps) {
        alloc.add_read_assign(target, r, room);
        rest_weight[r] -= room;
        current_load[target] = scaled_load[target];
        // Still pending (Line 33).
        alloc_internal::RequeueOrdered(&queue, head, p, heavier);
      } else {
        alloc.add_read_assign(target, r, rest_weight[r]);
        current_load[target] += rest_weight[r];
        rest_weight[r] = 0.0;
      }
    }
  }

  alloc_internal::PlaceOrphanFragments(cls, &alloc);
  return alloc;
}

}  // namespace qcap

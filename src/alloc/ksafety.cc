#include "alloc/ksafety.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qcap {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Pending {
  size_t index = 0;
  bool is_update = false;
  /// True for the zero-weight extra copies added for k-safety (the members
  /// of the multiset Ck in Algorithm 4).
  bool is_replica = false;
};

}  // namespace

Result<Allocation> KSafeGreedyAllocator::Allocate(
    const Classification& cls, const std::vector<BackendSpec>& backends) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(cls.Validate());
  const size_t n = backends.size();
  const int k = options_.k;
  if (k < 0) {
    return Status::InvalidArgument("k must be non-negative");
  }
  if (static_cast<size_t>(k) + 1 > n) {
    return Status::InvalidArgument(
        "k-safety of " + std::to_string(k) + " needs at least " +
        std::to_string(k + 1) + " backends, have " + std::to_string(n));
  }

  const double eps = options_.epsilon;
  // Memoized overlaps/bundles with the same accumulation orders as the
  // Classification helpers: comparisons stay bitwise identical.
  const ClassificationIndex index(cls);
  Allocation alloc(n, cls.catalog, cls.reads.size(), cls.updates.size());

  // Lines 1-2: C* plus the initial replica multiset Ck (update classes not
  // covered by any read class need k extra explicit copies).
  std::vector<Pending> queue;
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    queue.push_back(Pending{r, false, false});
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    if (index.reads_overlapping_update(u).empty()) {
      queue.push_back(Pending{u, true, false});
      for (int copy = 0; copy < k; ++copy) {
        queue.push_back(Pending{u, true, true});
      }
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
    double w = overlap_weight(p);
    if (!p.is_update && !p.is_replica) w += class_of(p).weight;
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
  DenseBitset row_scratch(cls.catalog.size());

  std::vector<double> current_load(n, 0.0);
  std::vector<double> scaled_load(n);
  for (size_t b = 0; b < n; ++b) scaled_load[b] = backends[b].relative_load;
  std::vector<double> rest_weight(cls.reads.size());
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    rest_weight[r] = cls.reads[r].weight;
  }
  std::vector<bool> replicas_added(cls.reads.size(), false);

  size_t max_iters = options_.max_iterations;
  if (max_iters == 0) {
    max_iters = 64 * (queue.size() + static_cast<size_t>(k + 1)) *
                    (cls.NumClasses() + 1) * (n + 1) + 1024;
  }
  size_t iters = 0;

  // Descending remaining weight x size. Only the popped class's key can
  // change, so the queue is sorted once and re-pushed classes (a split read
  // class, or the replicas of a finished one) are requeued in push order at
  // their place, which is the order a re-sort after every step would give.
  const auto heavier = [&](const Pending& a, const Pending& b) {
    const double wa = (!a.is_update && !a.is_replica)
                          ? rest_weight[a.index] + overlap_weight(a)
                          : bundle_weight(a);
    const double wb = (!b.is_update && !b.is_replica)
                          ? rest_weight[b.index] + overlap_weight(b)
                          : bundle_weight(b);
    return wa * bundle_size(a) > wb * bundle_size(b);
  };
  std::stable_sort(queue.begin(), queue.end(), heavier);
  std::vector<double> difference(n);
  size_t head = 0;  // queue[0, head) has been popped

  while (head < queue.size()) {
    if (++iters > max_iters) {
      return Status::Internal("k-safe greedy allocation did not converge");
    }
    const Pending p = queue[head++];
    const QueryClass& c = class_of(p);

    // Scale every backend if all are full (Lines 8-10).
    bool all_full = true;
    for (size_t b = 0; b < n; ++b) {
      if (current_load[b] < scaled_load[b] - eps) {
        all_full = false;
        break;
      }
    }
    if (all_full) {
      const double w = std::max(c.weight, 1e-6);
      for (size_t b = 0; b < n; ++b) {
        scaled_load[b] = current_load[b] + backends[b].relative_load * w;
      }
    }

    // Differences (Lines 11-17); replicas must not land on a backend that
    // already holds the class (Line 12).
    const ConstBitSpan bundle = bundle_bits(p);
    for (size_t b = 0; b < n; ++b) {
      const bool full = current_load[b] >= scaled_load[b] - eps;
      const bool already_holds =
          p.is_replica && alloc.HoldsAllBits(b, class_bits(p));
      if (full || already_holds) {
        difference[b] = kInf;
      } else if (current_load[b] <= eps) {
        difference[b] = 0.0;
      } else {
        difference[b] = alloc.MissingBytes(b, bundle);
      }
    }

    // Minimal difference; ties go to the lowest backend index (first fit).
    size_t target = n;
    for (size_t b = 0; b < n; ++b) {
      if (difference[b] == kInf) continue;
      if (target == n || difference[b] < difference[target] - 1e-15) {
        target = b;
      }
    }
    if (target == n) {
      // All candidates excluded: pick the least relatively loaded backend
      // not already holding the class (for replicas).
      double best = kInf;
      for (size_t b = 0; b < n; ++b) {
        if (p.is_replica && alloc.HoldsAllBits(b, class_bits(p))) continue;
        const double rel = current_load[b] / backends[b].relative_load;
        if (rel < best) {
          best = rel;
          target = b;
        }
      }
      if (target == n) continue;  // Class already everywhere; nothing to add.
    }

    alloc.PlaceBits(target, class_bits(p));
    const double added_updates = alloc_internal::CloseUpdatesOnBackend(
        cls, index, target, &alloc, &row_scratch);
    current_load[target] += added_updates;

    if (p.is_update || p.is_replica) {
      // Lines 21-24: update classes and zero-weight replicas are one-shot.
      if (current_load[target] > scaled_load[target]) {
        scaled_load[target] = current_load[target];
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
    } else {
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
        alloc_internal::RequeueOrdered(&queue, head, p, heavier);
      } else {
        alloc.add_read_assign(target, r, rest_weight[r]);
        current_load[target] += rest_weight[r];
        rest_weight[r] = 0.0;
        // Lines 34-38: append the missing zero-weight replicas of this
        // read class.
        if (!replicas_added[r]) {
          replicas_added[r] = true;
          size_t holders = 0;
          for (size_t b = 0; b < n; ++b) {
            if (alloc.HoldsAllBits(b, class_bits(p))) ++holders;
          }
          for (size_t copy = holders; copy < static_cast<size_t>(k) + 1;
               ++copy) {
            alloc_internal::RequeueOrdered(&queue, head,
                                           Pending{r, false, true}, heavier);
          }
        }
      }
    }
  }

  // Eq. 46 for everything not covered by class replication (unreferenced
  // fragments): top up to k+1 copies on the least-loaded backends.
  alloc_internal::PlaceOrphanFragments(cls, &alloc);
  for (FragmentId f = 0; f < alloc.num_fragments(); ++f) {
    while (alloc.ReplicaCount(f) < static_cast<size_t>(k) + 1) {
      size_t target = n;
      double best_bytes = kInf;
      for (size_t b = 0; b < n; ++b) {
        if (alloc.IsPlaced(b, f)) continue;
        const double bytes = alloc.BackendBytes(b, cls.catalog);
        if (bytes < best_bytes) {
          best_bytes = bytes;
          target = b;
        }
      }
      if (target == n) break;  // Already everywhere.
      alloc.Place(target, f);
      alloc_internal::CloseUpdatesOnBackend(cls, index, target, &alloc,
                                            &row_scratch);
    }
  }

  return alloc;
}

}  // namespace qcap

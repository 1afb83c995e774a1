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
  auto bundle_size = [&](const Pending& p) {
    return p.is_update ? index.update_bundle_bytes(p.index)
                       : index.read_bundle_bytes(p.index);
  };
  auto bundle_bits = [&](const Pending& p) -> ConstBitSpan {
    return p.is_update ? index.update_bundle_bits(p.index)
                       : index.read_bundle_bits(p.index);
  };

  std::vector<double> current_load(n, 0.0);
  std::vector<double> scaled_load(n);
  for (size_t b = 0; b < n; ++b) scaled_load[b] = backends[b].relative_load;
  std::vector<double> rest_weight(cls.reads.size());
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    rest_weight[r] = cls.reads[r].weight;
  }
  std::vector<bool> replicas_added(cls.reads.size(), false);

  // Descending remaining weight (a read class's remaining share plus its
  // updates' weight; update classes and zero-weight replicas carry only
  // the overlap weight) x size. Only
  // the popped class's key can change, so pushing a split read class, or
  // the replicas of a finished one, with its key at that moment gives the
  // order a re-sort after every step would (alloc_internal::PendingQueue).
  const auto key = [&](const Pending& p) {
    const double w = (!p.is_update && !p.is_replica)
                         ? rest_weight[p.index] + overlap_weight(p)
                         : overlap_weight(p);
    return w * bundle_size(p);
  };

  // Lines 1-2: C* plus the initial replica multiset Ck (update classes not
  // covered by any read class need k extra explicit copies).
  alloc_internal::PendingQueue<Pending> queue;
  queue.Reserve(cls.NumClasses() * (static_cast<size_t>(k) + 1));
  const auto push = [&](const Pending& p) { queue.Push(key(p), p); };
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    push(Pending{r, false, false});
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    if (index.reads_overlapping_update(u).empty()) {
      push(Pending{u, true, false});
      for (int copy = 0; copy < k; ++copy) push(Pending{u, true, true});
    }
  }

  size_t max_iters = options_.max_iterations;
  if (max_iters == 0) {
    max_iters = 64 * (queue.size() + static_cast<size_t>(k + 1)) *
                    (cls.NumClasses() + 1) * (n + 1) + 1024;
  }
  size_t iters = 0;

  std::vector<double> difference(n);
  std::vector<uint8_t> already_holds(n, 0);
  alloc_internal::BundleScores scores(n);
  alloc_internal::UpdateCloser closer(cls);

  while (!queue.empty()) {
    if (++iters > max_iters) {
      return Status::Internal("k-safe greedy allocation did not converge");
    }
    const Pending p = queue.Pop();
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
    scores.Score(alloc, bundle_bits(p));
    for (size_t b = 0; b < n; ++b) {
      already_holds[b] = p.is_replica && alloc.HoldsAllBits(b, class_bits(p));
    }
    for (size_t b = 0; b < n; ++b) {
      const bool full = current_load[b] >= scaled_load[b] - eps;
      if (full || already_holds[b]) {
        difference[b] = kInf;
      } else if (current_load[b] <= eps) {
        difference[b] = 0.0;
      } else {
        difference[b] = scores.missing(b);
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
        if (already_holds[b]) continue;
        const double rel = current_load[b] / backends[b].relative_load;
        if (rel < best) {
          best = rel;
          target = b;
        }
      }
      if (target == n) continue;  // Class already everywhere; nothing to add.
    }

    const double added_updates =
        closer.PlaceAndClose(target, class_bits(p), &alloc);
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
        push(p);
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
            push(Pending{r, false, true});
          }
        }
      }
    }
  }

  // Eq. 46 for everything not covered by class replication (unreferenced
  // fragments): top up to k+1 copies on the least-loaded backends.
  closer.PlaceOrphans(&alloc, nullptr);
  DenseBitset single(cls.catalog.size());
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
      single.Set(f);
      closer.PlaceAndClose(target, single, &alloc);
      single.Clear(f);
    }
  }

  return alloc;
}

}  // namespace qcap

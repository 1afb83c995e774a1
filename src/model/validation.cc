#include "model/validation.h"

#include <cmath>

namespace qcap {

namespace {

/// Numerical tolerance for weight comparisons.
constexpr double kEpsilon = 1e-6;

/// The read loop of ValidateAllocation (Eq. 8 + Eq. 9): for each read
/// class, for each backend, the share's finiteness and sign and, when
/// \p check_placement, that a positive share's backend holds the class's
/// data; then the class's sum. Every comparison is phrased so that NaN
/// fails it.
Status CheckReadShares(const Classification& cls, const Allocation& alloc,
                       bool check_placement) {
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    const QueryClass& c = cls.reads[r];
    double assigned = 0.0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      const double a = alloc.read_assign(b, r);
      if (!std::isfinite(a)) {
        return Status::InvalidArgument("non-finite assignment of " + c.label +
                                       " on backend " + std::to_string(b + 1));
      }
      if (!(a >= -kEpsilon)) {
        return Status::InvalidArgument("negative assignment of " + c.label);
      }
      if (check_placement && a > kEpsilon && !alloc.HoldsAll(b, c.fragments)) {
        return Status::InvalidArgument(
            "read class " + c.label + " assigned to backend " +
            std::to_string(b + 1) + " which lacks referenced fragments");
      }
      assigned += a;
    }
    if (!(std::abs(assigned - c.weight) <= kEpsilon)) {
      return Status::InvalidArgument(
          "read class " + c.label + " assigned " + std::to_string(assigned) +
          " of weight " + std::to_string(c.weight));
    }
  }
  return Status::OK();
}

}  // namespace

Status ValidateReadShares(const Classification& cls, const Allocation& alloc) {
  return CheckReadShares(cls, alloc, /*check_placement=*/false);
}

Status ValidateAllocationShape(const Classification& cls,
                               const Allocation& alloc, size_t num_backends) {
  const auto check = [](const char* what, size_t got, size_t want) {
    if (got == want) return Status::OK();
    return Status::InvalidArgument("allocation has " + std::to_string(got) +
                                   " " + what + ", expected " +
                                   std::to_string(want));
  };
  QCAP_RETURN_NOT_OK(check("backends", alloc.num_backends(), num_backends));
  QCAP_RETURN_NOT_OK(
      check("fragments", alloc.num_fragments(), cls.catalog.size()));
  QCAP_RETURN_NOT_OK(
      check("read classes", alloc.num_reads(), cls.reads.size()));
  return check("update classes", alloc.num_updates(), cls.updates.size());
}

Status ValidateAllocation(const Classification& cls, const Allocation& alloc,
                          const std::vector<BackendSpec>& backends,
                          const ValidationOptions& options) {
  QCAP_RETURN_NOT_OK(ValidateBackends(backends));
  QCAP_RETURN_NOT_OK(ValidateAllocationShape(cls, alloc, backends.size()));

  // Eq. 8 + Eq. 9: read classes fully assigned, only to backends holding
  // their data.
  QCAP_RETURN_NOT_OK(CheckReadShares(cls, alloc, /*check_placement=*/true));

  // Eq. 10 + Eq. 11: update classes pinned to every backend with
  // overlapping data; at least one replica.
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    const QueryClass& c = cls.updates[u];
    size_t replicas = 0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      const double a = alloc.update_assign(b, u);
      const bool overlaps = alloc.HoldsAny(b, c.fragments);
      if (overlaps) {
        if (!(std::abs(a - c.weight) <= kEpsilon)) {
          return Status::InvalidArgument(
              "update class " + c.label + " must carry weight " +
              std::to_string(c.weight) + " on backend " + std::to_string(b + 1) +
              " (has " + std::to_string(a) + ")");
        }
        // ROWA execution requires the full referenced data, not only the
        // overlapping part.
        if (!alloc.HoldsAll(b, c.fragments)) {
          return Status::InvalidArgument(
              "backend " + std::to_string(b + 1) + " stores part of " +
              c.label + "'s data but not all of it");
        }
        ++replicas;
      } else if (!(std::abs(a) <= kEpsilon)) {
        return Status::InvalidArgument(
            "update class " + c.label + " assigned to backend " +
            std::to_string(b + 1) + " without overlapping data");
      }
    }
    if (replicas == 0) {
      return Status::InvalidArgument("update class " + c.label +
                                     " is not allocated anywhere");
    }
    if (options.k_safety > 0 &&
        replicas < static_cast<size_t>(options.k_safety) + 1) {
      return Status::InvalidArgument(
          "update class " + c.label + " has " + std::to_string(replicas) +
          " replicas, k-safety requires " +
          std::to_string(options.k_safety + 1));
    }
  }

  // k-safety for read classes (Eq. 47): the class must be *executable* on
  // at least k+1 backends (all fragments present).
  if (options.k_safety > 0) {
    for (const auto& c : cls.reads) {
      size_t capable = 0;
      for (size_t b = 0; b < alloc.num_backends(); ++b) {
        if (alloc.HoldsAll(b, c.fragments)) ++capable;
      }
      if (capable < static_cast<size_t>(options.k_safety) + 1) {
        return Status::InvalidArgument(
            "read class " + c.label + " executable on " +
            std::to_string(capable) + " backends, k-safety requires " +
            std::to_string(options.k_safety + 1));
      }
    }
  }

  // Data completeness (and Eq. 46 when k_safety > 0).
  if (options.require_complete_data) {
    const size_t min_replicas =
        options.k_safety > 0 ? static_cast<size_t>(options.k_safety) + 1 : 1;
    for (FragmentId f = 0; f < alloc.num_fragments(); ++f) {
      const size_t replicas = alloc.ReplicaCount(f);
      if (replicas < min_replicas) {
        return Status::InvalidArgument(
            "fragment '" + cls.catalog.Get(f).name + "' stored on " +
            std::to_string(replicas) + " backends, required " +
            std::to_string(min_replicas));
      }
    }
  }

  return Status::OK();
}

Status CheckKSafety(const Classification& cls, const Allocation& alloc,
                    const std::vector<bool>& alive, int k) {
  if (alive.size() != alloc.num_backends()) {
    return Status::InvalidArgument(
        "alive mask has " + std::to_string(alive.size()) + " entries for " +
        std::to_string(alloc.num_backends()) + " backends");
  }
  if (k < 0) {
    return Status::InvalidArgument("k must be >= 0");
  }
  QCAP_RETURN_NOT_OK(ValidateAllocationShape(cls, alloc, alive.size()));
  const size_t required = static_cast<size_t>(k) + 1;

  for (const QueryClass& c : cls.reads) {
    size_t capable = 0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      if (alive[b] && alloc.HoldsAll(b, c.fragments)) ++capable;
    }
    if (capable < required) {
      return Status::Infeasible(
          "read class " + c.label + " executable on " +
          std::to_string(capable) + " surviving backends, k=" +
          std::to_string(k) + " requires " + std::to_string(required));
    }
  }
  for (const QueryClass& c : cls.updates) {
    size_t capable = 0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      if (alive[b] && alloc.HoldsAll(b, c.fragments)) ++capable;
    }
    if (capable < required) {
      return Status::Infeasible(
          "update class " + c.label + " executable on " +
          std::to_string(capable) + " surviving backends, k=" +
          std::to_string(k) + " requires " + std::to_string(required));
    }
  }
  for (FragmentId f = 0; f < alloc.num_fragments(); ++f) {
    size_t replicas = 0;
    for (size_t b = 0; b < alloc.num_backends(); ++b) {
      if (alive[b] && alloc.IsPlaced(b, f)) ++replicas;
    }
    if (replicas < required) {
      return Status::Infeasible(
          "fragment '" + cls.catalog.Get(f).name + "' stored on " +
          std::to_string(replicas) + " surviving backends, k=" +
          std::to_string(k) + " requires " + std::to_string(required));
    }
  }
  return Status::OK();
}

}  // namespace qcap

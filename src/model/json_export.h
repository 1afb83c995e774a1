// Machine-readable JSON exports of classifications and allocations, for
// dashboards and external tooling (the human-readable counterpart lives in
// model/report.h).
#pragma once

#include <string>
#include <vector>

#include "model/allocation.h"
#include "model/backend.h"
#include "workload/query_class.h"

namespace qcap {

/// Serializes the classification: fragments (name/table/bytes) and classes
/// (label/kind/weight/fragment ids).
std::string ClassificationToJson(const Classification& cls);

/// Serializes the allocation: headline metrics, per-backend placement and
/// assignments, and the replica histogram.
std::string AllocationToJson(const Classification& cls,
                             const Allocation& alloc,
                             const std::vector<BackendSpec>& backends);

}  // namespace qcap

#include "exec/cost_model.h"

#include <algorithm>
#include <map>

namespace qcap::engine {

namespace {

/// Per-query multiplier for column-granular execution overhead (stitching
/// vertical fragments back together; the paper observed a small slowdown
/// for column-based allocation on TPC-App).
constexpr double kColumnOverhead = 1.05;
/// Buffer-pool mixing: a backend interleaving k distinct query classes
/// behaves as if its working set were inflated by
/// (1 + kMixingPerClass * (k - 1)). This is what makes specialized
/// backends cache better than full replicas serving every class
/// (Section 4.1: "the backends are specialized on single query classes,
/// less data is stored on the nodes and, hence, the caching improves").
constexpr double kMixingPerClass = 0.10;

}  // namespace

double CostModel::ScanScale(const Classification& cls,
                            const QueryClass& c) const {
  // Bytes touched at the classification granularity...
  const double fragment_bytes = cls.catalog.SetBytes(c.fragments);
  // ... relative to touching the referenced tables in full.
  std::map<std::string, double> table_bytes;
  for (FragmentId f : c.fragments) {
    const auto& frag = cls.catalog.Get(f);
    table_bytes.try_emplace(frag.table, 0.0);
  }
  // Sum full table sizes over the fragment catalog (all fragments of the
  // referenced tables).
  double full_bytes = 0.0;
  for (const auto& frag : cls.catalog.fragments()) {
    auto it = table_bytes.find(frag.table);
    if (it != table_bytes.end()) full_bytes += frag.size_bytes;
  }
  if (full_bytes <= 0.0) return 1.0;
  return std::min(1.0, fragment_bytes / full_bytes);
}

double CostModel::ServiceSeconds(const Classification& cls, const QueryClass& c,
                                 double resident_bytes, double speed) const {
  const double scan_scale = ScanScale(cls, c);
  double cache_penalty = 1.0;
  if (resident_bytes > params_.memory_bytes && params_.memory_bytes > 0.0) {
    const double miss = 1.0 - params_.memory_bytes / resident_bytes;
    cache_penalty = 1.0 + (params_.max_cache_penalty - 1.0) * miss;
  }
  double io = params_.io_fraction * scan_scale * cache_penalty;
  double cpu = 1.0 - params_.io_fraction;
  double overhead = 1.0;
  // Column-granular execution stitches vertical fragments back together.
  if (!c.fragments.empty() &&
      cls.catalog.Get(c.fragments.front()).kind == FragmentKind::kColumn) {
    overhead = kColumnOverhead;
  }
  return c.mean_cost * (io + cpu) * overhead / std::max(speed, 1e-9);
}

double CostModel::WorkingSetBytes(const Classification& cls,
                                  const Allocation& alloc, size_t b) {
  // Runtime working set: the least-pending-first scheduler can send any
  // class the backend is *capable* of (holds all data for), so eligibility
  // rather than the planned assignment determines what the backend's cache
  // actually sees.
  FragmentSet working;
  const FragmentSet held = alloc.BackendFragments(b);
  for (const auto& r : cls.reads) {
    if (IsSubset(r.fragments, held)) {
      working = SetUnion(working, r.fragments);
    }
  }
  for (const auto& u : cls.updates) {
    if (Intersects(u.fragments, held)) {
      working = SetUnion(working, u.fragments);
    }
  }
  return cls.catalog.SetBytes(working);
}

std::vector<std::vector<double>> CostModel::ServiceMatrix(
    const Classification& cls, const Allocation& alloc,
    const std::vector<BackendSpec>& backends) const {
  const size_t n = backends.size();
  std::vector<double> resident(n);
  for (size_t b = 0; b < n; ++b) {
    // Mixing counts the classes the backend is eligible for at runtime.
    const FragmentSet held = alloc.BackendFragments(b);
    size_t classes_served = 0;
    for (const auto& r : cls.reads) {
      if (IsSubset(r.fragments, held)) ++classes_served;
    }
    for (const auto& u : cls.updates) {
      if (Intersects(u.fragments, held)) ++classes_served;
    }
    const double mixing =
        classes_served > 1
            ? 1.0 + kMixingPerClass * static_cast<double>(classes_served - 1)
            : 1.0;
    resident[b] = WorkingSetBytes(cls, alloc, b) * mixing;
  }
  std::vector<std::vector<double>> out;
  out.reserve(cls.NumClasses());
  auto row = [&](const QueryClass& c) {
    std::vector<double> r(n);
    for (size_t b = 0; b < n; ++b) {
      const double speed =
          backends[b].relative_load * static_cast<double>(n);
      r[b] = ServiceSeconds(cls, c, resident[b], speed);
    }
    return r;
  };
  for (const auto& c : cls.reads) out.push_back(row(c));
  for (const auto& c : cls.updates) out.push_back(row(c));
  return out;
}

}  // namespace qcap::engine

#include "exec/cost_model.h"

#include <algorithm>
#include <map>
#include <string_view>

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

/// \brief Full-table bytes of a class's referenced tables: every catalog
/// fragment gets a dense table id once, and each distinct referenced-table
/// set is summed once, in catalog (id) order.
class FullTableBytes {
 public:
  explicit FullTableBytes(const FragmentCatalog& catalog) : catalog_(catalog) {
    std::map<std::string_view, uint32_t> ids;
    table_of_.reserve(catalog.size());
    for (const Fragment& frag : catalog.fragments()) {
      table_of_.push_back(
          ids.try_emplace(frag.table, static_cast<uint32_t>(ids.size()))
              .first->second);
    }
    wanted_.assign(ids.size(), false);
  }

  /// Bytes of all fragments of the tables \p fragments belong to.
  double Of(const FragmentSet& fragments) {
    key_.clear();
    for (FragmentId f : fragments) key_.push_back(table_of_[f]);
    std::sort(key_.begin(), key_.end());
    key_.erase(std::unique(key_.begin(), key_.end()), key_.end());
    const auto it = memo_.find(key_);
    if (it != memo_.end()) return it->second;
    for (uint32_t t : key_) wanted_[t] = true;
    double full = 0.0;
    for (FragmentId f = 0; f < table_of_.size(); ++f) {
      if (wanted_[table_of_[f]]) full += catalog_.Get(f).size_bytes;
    }
    for (uint32_t t : key_) wanted_[t] = false;
    memo_.emplace(key_, full);
    return full;
  }

 private:
  const FragmentCatalog& catalog_;
  std::vector<uint32_t> table_of_;                // per fragment
  std::vector<bool> wanted_;                      // per table, scratch
  std::vector<uint32_t> key_;                     // scratch
  std::map<std::vector<uint32_t>, double> memo_;  // table set -> bytes
};

/// The per-class factors of a service time.
struct ClassFactors {
  double scan_scale = 1.0;
  double overhead = 1.0;
};

ClassFactors FactorsOf(const FragmentCatalog& catalog, const QueryClass& c,
                       FullTableBytes* tables) {
  ClassFactors out;
  // Bytes touched at the classification granularity relative to touching
  // the referenced tables in full.
  const double fragment_bytes = catalog.SetBytes(c.fragments);
  const double full_bytes = tables->Of(c.fragments);
  if (full_bytes > 0.0) {
    out.scan_scale = std::min(1.0, fragment_bytes / full_bytes);
  }
  // Column-granular execution stitches vertical fragments back together.
  if (!c.fragments.empty() &&
      catalog.Get(c.fragments.front()).kind == FragmentKind::kColumn) {
    out.overhead = kColumnOverhead;
  }
  return out;
}

/// The per-backend cache-penalty factor.
double CachePenalty(const CostModelParams& params, double resident_bytes) {
  if (resident_bytes > params.memory_bytes && params.memory_bytes > 0.0) {
    const double miss = 1.0 - params.memory_bytes / resident_bytes;
    return 1.0 + (params.max_cache_penalty - 1.0) * miss;
  }
  return 1.0;
}

/// One cell from the class's and the backend's factors.
double Cell(const CostModelParams& params, const QueryClass& c,
            const ClassFactors& factors, double cache_penalty, double speed) {
  const double io = params.io_fraction * factors.scan_scale * cache_penalty;
  const double cpu = 1.0 - params.io_fraction;
  return c.mean_cost * (io + cpu) * factors.overhead / std::max(speed, 1e-9);
}

}  // namespace

double CostModel::ServiceSeconds(const Classification& cls, const QueryClass& c,
                                 double resident_bytes, double speed) const {
  FullTableBytes tables(cls.catalog);
  return Cell(params_, c, FactorsOf(cls.catalog, c, &tables),
              CachePenalty(params_, resident_bytes), speed);
}

std::vector<double> CostModel::ServiceMatrix(
    const Classification& cls, const Allocation& alloc,
    const std::vector<BackendSpec>& backends) const {
  const size_t n = backends.size();
  const auto class_at = [&cls](size_t i) -> const QueryClass& {
    return i < cls.reads.size() ? cls.reads[i]
                                : cls.updates[i - cls.reads.size()];
  };
  FullTableBytes tables(cls.catalog);
  std::vector<ClassFactors> factors(cls.NumClasses());
  for (size_t i = 0; i < factors.size(); ++i) {
    factors[i] = FactorsOf(cls.catalog, class_at(i), &tables);
  }

  // Runtime working set: the least-pending-first scheduler can send any
  // class the backend is *capable* of (holds all data for), so eligibility
  // rather than the planned assignment determines what the backend's cache
  // actually sees, and how many classes mix in it.
  std::vector<double> penalty(n), speed(n);
  DenseBitset working(cls.catalog.size());
  for (size_t b = 0; b < n; ++b) {
    working.ClearAll();
    size_t classes_served = 0;
    const auto serve = [&](const QueryClass& c) {
      ++classes_served;
      for (FragmentId f : c.fragments) working.Set(f);
    };
    for (const auto& r : cls.reads) {
      if (alloc.HoldsAll(b, r.fragments)) serve(r);
    }
    for (const auto& u : cls.updates) {
      if (alloc.HoldsAny(b, u.fragments)) serve(u);
    }
    // Ascending id order: the same float sum as SetBytes on the union.
    double working_bytes = 0.0;
    working.ForEachSetBit(
        [&](size_t f) { working_bytes += cls.catalog.Get(f).size_bytes; });
    const double mixing =
        classes_served > 1
            ? 1.0 + kMixingPerClass * static_cast<double>(classes_served - 1)
            : 1.0;
    penalty[b] = CachePenalty(params_, working_bytes * mixing);
    speed[b] = backends[b].relative_load * static_cast<double>(n);
  }

  std::vector<double> out(cls.NumClasses() * n);
  for (size_t i = 0; i < factors.size(); ++i) {
    const QueryClass& c = class_at(i);
    double* row = out.data() + i * n;
    for (size_t b = 0; b < n; ++b) {
      row[b] = Cell(params_, c, factors[i], penalty[b], speed[b]);
    }
  }
  return out;
}

}  // namespace qcap::engine

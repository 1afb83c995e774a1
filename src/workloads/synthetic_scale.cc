#include "workloads/synthetic_scale.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"

namespace qcap::workloads {

namespace {

/// Fragments per read class, uniform in [min, max].
constexpr size_t kMinFragmentsPerRead = 2;
constexpr size_t kMaxFragmentsPerRead = 8;
/// Fragments per update class, drawn from the class's locality window.
constexpr size_t kMinFragmentsPerUpdate = 1;
constexpr size_t kMaxFragmentsPerUpdate = 4;
/// Share of total workload weight carried by update classes.
constexpr double kUpdateShare = 0.25;

/// Inverse-CDF sampler over fragment ids with Zipf(s) popularity. A flat
/// cumulative table plus binary search keeps sampling deterministic and
/// O(log F) regardless of the skew.
class ZipfSampler {
 public:
  ZipfSampler(size_t n, double exponent) : cdf_(n) {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) {
      total += 1.0 / std::pow(static_cast<double>(i + 1), exponent);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  size_t Sample(Rng* rng) const {
    const double u = rng->NextDouble();
    const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
    return it == cdf_.end() ? cdf_.size() - 1
                            : static_cast<size_t>(it - cdf_.begin());
  }

 private:
  std::vector<double> cdf_;
};

}  // namespace

Classification MakeScaleClassification(const ScaleOptions& options) {
  assert(options.num_fragments > 0);
  Rng rng(options.seed);
  Classification cls;

  // Fragment catalog: skewed sizes (popular fragments are not the large
  // ones — size and popularity are drawn independently, like a fact table
  // split into horizontal partitions with hot heads).
  const size_t F = options.num_fragments;
  for (size_t f = 0; f < F; ++f) {
    const double size_bytes =
        1e6 * std::exp(rng.NextDouble(0.0, 4.0));  // 1 MB .. ~55 MB
    auto added = cls.catalog.Add("f" + std::to_string(f), "t",
                                 FragmentKind::kHorizontal, size_bytes);
    assert(added.ok());
    (void)added;
  }

  // Read classes: Zipfian co-access over the whole fragment universe.
  const ZipfSampler sampler(F, options.zipf_exponent);
  const size_t R = options.num_read_classes;
  std::vector<double> raw_read_weight(R);
  cls.reads.resize(R);
  FragmentSet set;
  for (size_t r = 0; r < R; ++r) {
    const size_t want =
        kMinFragmentsPerRead +
        rng.NextBounded(kMaxFragmentsPerRead - kMinFragmentsPerRead + 1);
    set.clear();
    // Rejection-free: draw until `want` distinct fragments are collected
    // (duplicates from the Zipf head are skipped; bounded retries because
    // want << F).
    while (set.size() < want) {
      const FragmentId f = static_cast<FragmentId>(sampler.Sample(&rng));
      if (!Contains(set, f)) set.push_back(f);
      NormalizeSet(&set);
    }
    QueryClass& c = cls.reads[r];
    c.fragments = set;
    c.is_update = false;
    c.label = "Q" + std::to_string(r);
    c.mean_cost = rng.NextDouble(0.001, 0.05);
    raw_read_weight[r] = 1.0 / static_cast<double>(r + 1);
  }

  // Update classes: disjoint locality windows tiling the fragment space.
  // Updates in the same window overlap each other (non-trivial closures);
  // different windows never chain, so closure components stay bounded.
  const size_t U = options.num_update_classes;
  const size_t window = std::max<size_t>(2 * kMaxFragmentsPerUpdate, 4);
  const size_t num_windows = std::max<size_t>(1, F / window);
  std::vector<double> raw_update_weight(U);
  cls.updates.resize(U);
  for (size_t u = 0; u < U; ++u) {
    const size_t base = (u % num_windows) * window;
    const size_t span = std::min(window, F - base);
    const size_t want =
        std::min(span, kMinFragmentsPerUpdate +
                           rng.NextBounded(kMaxFragmentsPerUpdate -
                                           kMinFragmentsPerUpdate + 1));
    set.clear();
    while (set.size() < want) {
      const FragmentId f = static_cast<FragmentId>(base + rng.NextBounded(span));
      if (!Contains(set, f)) set.push_back(f);
      NormalizeSet(&set);
    }
    QueryClass& c = cls.updates[u];
    c.fragments = set;
    c.is_update = true;
    c.label = "U" + std::to_string(u);
    c.mean_cost = rng.NextDouble(0.001, 0.02);
    raw_update_weight[u] = 1.0 / static_cast<double>(u + 1);
  }

  // Normalize weights: reads carry (1 - kUpdateShare), updates the rest.
  double read_total = 0.0;
  for (double w : raw_read_weight) read_total += w;
  double update_total = 0.0;
  for (double w : raw_update_weight) update_total += w;
  const double read_share = U == 0 ? 1.0 : 1.0 - kUpdateShare;
  for (size_t r = 0; r < R; ++r) {
    cls.reads[r].weight = read_share * raw_read_weight[r] / read_total;
  }
  for (size_t u = 0; u < U; ++u) {
    cls.updates[u].weight = kUpdateShare * raw_update_weight[u] / update_total;
  }
  return cls;
}

}  // namespace qcap::workloads

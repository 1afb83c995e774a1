// E10 / Figure 4(h): TPC-App throughput deviation of the column-based
// allocation (avg/min/max over 10 runs).
//
// Paper shape: the read-write workload deviates more than the read-only
// TPC-H runs (Figure 4b) because update placement constrains balancing.
#include <cstdio>

#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  const engine::CostModelParams params = TpcAppCostParams();
  MemeticOptions mopts;
  mopts.iterations = 40;
  mopts.population_size = 12;

  PrintHeader("Figure 4(h): TPC-App column-based throughput deviation",
              {"backends", "avg q/s", "min q/s", "max q/s", "spread"});
  double worst_spread = 0.0;
  for (size_t n = 1; n <= 10; ++n) {
    // Vary the memetic seed per run, mirroring the paper's 10 repetitions
    // of the full allocate+measure pipeline.
    double sum = 0.0, min_v = 1e300, max_v = -1e300;
    constexpr size_t kRuns = 10;
    for (size_t run = 0; run < kRuns; ++run) {
      MemeticOptions opts = mopts;
      opts.seed = 100 + run;
      MemeticAllocator memetic(opts);
      Layout p = ValueOrDie(
          BuildLayout(catalog, journal, {Granularity::kColumn}, memetic,
                      HomogeneousBackends(n)),
          "pipeline");
      SimStats stats = ValueOrDie(Simulate(p, 20000, run + 1, params), "sim");
      sum += stats.throughput;
      min_v = std::min(min_v, stats.throughput);
      max_v = std::max(max_v, stats.throughput);
    }
    const double mean = sum / kRuns;
    const double spread = (max_v - min_v) / mean;
    worst_spread = std::max(worst_spread, spread);
    PrintRow({std::to_string(n), Fmt(mean, 0), Fmt(min_v, 0), Fmt(max_v, 0),
              FormatPercent(spread, 1)});
  }
  std::printf(
      "\npaper shape: higher deviation than the read-only case (compare "
      "Figure 4b) -- update pinning limits balancing. measured worst "
      "spread: %s\n",
      FormatPercent(worst_spread, 1).c_str());
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E10: TPC-App throughput deviation (Figure 4h)\n");
  qcap::bench::Run();
  return 0;
}

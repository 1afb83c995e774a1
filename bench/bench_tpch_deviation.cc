// E4 / Figure 4(b): TPC-H throughput deviation of the column-based
// allocation over 10 runs (avg/min/max per cluster size).
//
// Paper shape: deviation never exceeds ~6% -- summed execution time is an
// excellent weight measure.
#include <cstdio>

#include "alloc/greedy.h"
#include "bench_util.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  const engine::CostModelParams params = TpchCostParams();
  GreedyAllocator greedy;

  PrintHeader("Figure 4(b): TPC-H column-based throughput deviation",
              {"backends", "avg q/s", "min q/s", "max q/s", "spread"});
  double worst_spread = 0.0;
  for (size_t n = 1; n <= 10; ++n) {
    Layout p = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                    HomogeneousBackends(n)),
        "pipeline");
    ThroughputStats stats =
        ValueOrDie(SimulateSeeds(p, 2000, 10, params), "simulate");
    const double spread = (stats.max - stats.min) / stats.mean;
    worst_spread = std::max(worst_spread, spread);
    PrintRow({std::to_string(n), Fmt(stats.mean), Fmt(stats.min),
              Fmt(stats.max), FormatPercent(spread, 1)});
  }
  std::printf(
      "\npaper shape: max-min spread stays small (paper: never above 6%%). "
      "measured worst spread: %s\n",
      FormatPercent(worst_spread, 1).c_str());
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E4: TPC-H throughput deviation (Figure 4b)\n");
  qcap::bench::Run();
  return 0;
}

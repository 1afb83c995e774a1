// E12 / Figure 4(j): relative load balance (deviation of per-backend
// processing time from the mean) for the column-based allocation, TPC-H vs
// TPC-App, 1-10 backends.
//
// Paper shape: deviation grows with the cluster size and is much larger
// for the read-write TPC-App workload; the deviation stems from
// *underloaded* nodes, so throughput is not hurt proportionally.
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog tpch_catalog = workloads::TpchCatalog(1.0);
  const QueryJournal tpch_journal = workloads::TpchJournal(10000);
  const engine::Catalog app_catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal app_journal = workloads::TpcAppJournal(200000);
  GreedyAllocator greedy;
  MemeticOptions mopts;
  mopts.iterations = 30;
  mopts.population_size = 9;
  MemeticAllocator memetic(mopts);

  PrintHeader("Figure 4(j): deviation from balance (column-based)",
              {"backends", "tpch(sim)", "tpcapp(sim)", "tpch(model)",
               "tpcapp(model)"});
  for (size_t n = 1; n <= 10; ++n) {
    Layout ph = ValueOrDie(BuildLayout(tpch_catalog, tpch_journal,
                                       {Granularity::kColumn}, greedy,
                                       HomogeneousBackends(n)),
                           "tpch");
    Layout pa = ValueOrDie(BuildLayout(app_catalog, app_journal,
                                       {Granularity::kColumn}, memetic,
                                       HomogeneousBackends(n)),
                           "tpcapp");
    // Average simulated busy-time deviation over 10 seeded runs.
    double dev_h = 0.0, dev_a = 0.0;
    constexpr size_t kRuns = 10;
    std::vector<double> loads(n, 1.0 / static_cast<double>(n));
    for (size_t run = 0; run < kRuns; ++run) {
      SimStats sh =
          ValueOrDie(Simulate(ph, 1500, run + 1, TpchCostParams()), "sim-h");
      SimStats sa =
          ValueOrDie(Simulate(pa, 15000, run + 1, TpcAppCostParams()), "sim-a");
      dev_h += sh.BusyBalanceDeviation(loads);
      dev_a += sa.BusyBalanceDeviation(loads);
    }
    PrintRow({std::to_string(n), Fmt(dev_h / kRuns), Fmt(dev_a / kRuns),
              Fmt(BalanceDeviation(ph.allocation, ph.backends)),
              Fmt(BalanceDeviation(pa.allocation, pa.backends))});
  }
  std::printf(
      "\npaper shape: deviation increases with the number of backends and "
      "is much larger for the read-write workload (TPC-App), approaching 1 "
      "in some configurations -- always from an underloaded node.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E12: relative load balance TPC-H vs TPC-App (Figure 4j)\n");
  qcap::bench::Run();
  return 0;
}

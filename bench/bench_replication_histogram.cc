// E13/E14 / Figures 4(k) and 4(l): histograms of fragment replication at 10
// backends, table-based and column-based, TPC-H vs TPC-App.
//
// Paper shape (table-based): every TPC-H table replicated at least twice
// and lineitem on all nodes; in TPC-App the heavily updated table sits on
// exactly one backend while read-mostly tables replicate. Column-based:
// the two workloads' histograms look much more alike, with most fragments
// at low replica counts.
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

std::vector<double> AverageHistogram(const engine::Catalog& catalog,
                                     const QueryJournal& journal,
                                     Granularity granularity, bool per_table,
                                     size_t runs) {
  std::vector<double> avg(11, 0.0);
  for (size_t run = 0; run < runs; ++run) {
    MemeticOptions opts;
    opts.iterations = 25;
    opts.population_size = 9;
    opts.seed = 500 + run;
    MemeticAllocator memetic(opts);
    Layout p = ValueOrDie(
        BuildLayout(catalog, journal, {granularity}, memetic,
                    HomogeneousBackends(10)),
        "pipeline");
    const std::vector<size_t> hist =
        per_table
            ? TableReplicationHistogram(p.allocation, p.classification.catalog)
            : ReplicationHistogram(p.allocation);
    for (size_t k = 0; k < hist.size() && k < avg.size(); ++k) {
      avg[k] += static_cast<double>(hist[k]);
    }
  }
  for (double& v : avg) v /= static_cast<double>(runs);
  return avg;
}

void PrintHistogramPair(const char* title, const std::vector<double>& tpch,
                        const std::vector<double>& tpcapp) {
  PrintHeader(title, {"#replicas", "tpch", "tpcapp"}, 12);
  for (size_t k = 1; k <= 10; ++k) {
    PrintRow({std::to_string(k), Fmt(tpch[k], 1), Fmt(tpcapp[k], 1)}, 12);
  }
}

void Run() {
  const engine::Catalog tpch_catalog = workloads::TpchCatalog(1.0);
  const QueryJournal tpch_journal = workloads::TpchJournal(10000);
  const engine::Catalog app_catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal app_journal = workloads::TpcAppJournal(200000);
  constexpr size_t kRuns = 10;

  PrintHistogramPair(
      "Figure 4(k): replication histogram, table-based (tables per count)",
      AverageHistogram(tpch_catalog, tpch_journal, Granularity::kTable, true,
                       kRuns),
      AverageHistogram(app_catalog, app_journal, Granularity::kTable, true,
                       kRuns));
  std::printf(
      "paper shape: TPC-H tables all >= 2 replicas, lineitem on every node; "
      "TPC-App's update-heavy order_line on exactly one backend.\n");

  PrintHistogramPair(
      "Figure 4(l): replication histogram, column-based (columns per count)",
      AverageHistogram(tpch_catalog, tpch_journal, Granularity::kColumn, false,
                       kRuns),
      AverageHistogram(app_catalog, app_journal, Granularity::kColumn, false,
                       kRuns));
  std::printf(
      "paper shape: with many more fragments the two workloads' histograms "
      "become similar; most fragments sit at low replica counts, a few hot "
      "columns everywhere.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E13/E14: replication histograms (Figures 4k/4l)\n");
  qcap::bench::Run();
  return 0;
}

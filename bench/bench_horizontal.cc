// E23: predicate-based (horizontal) partitioning granularity on an
// append-mostly time-series workload.
//
// At table granularity every read class references the whole events table,
// so the ingest class is pinned to every reading backend (throughput
// plateaus at n/(u*n + r)); with range-partition fragments the hot tail is
// isolated on one backend and the cold ranges replicate freely, pushing
// the speedup to the Eq. 17 bound (1/ingest-weight).
#include <cstdio>

#include "alloc/greedy.h"
#include "bench_util.h"
#include "model/metrics.h"
#include "workloads/timeseries.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TimeSeriesCatalog(1.0);
  const QueryJournal journal = workloads::TimeSeriesJournal(100000);
  GreedyAllocator greedy;
  engine::CostModelParams params;
  params.memory_bytes = 2.0 * 1024 * 1024 * 1024;
  params.io_fraction = 0.5;

  PrintHeader(
      "time-series workload: table vs horizontal granularity",
      {"backends", "tbl speedup", "hor speedup", "tbl repl", "hor repl"});
  for (size_t n : {1, 2, 4, 6, 8, 10}) {
    Layout pt = ValueOrDie(
        BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                    HomogeneousBackends(n)),
        "table");
    Layout ph = ValueOrDie(
        BuildLayout(catalog, journal,
                    {Granularity::kHorizontal, workloads::kTimeSeriesPartitions},
                    greedy, HomogeneousBackends(n)),
        "horizontal");
    PrintRow({std::to_string(n), Fmt(pt.model_speedup),
              Fmt(ph.model_speedup), Fmt(pt.degree_of_replication),
              Fmt(ph.degree_of_replication)});
  }

  // Eq. 17 bounds for both granularities.
  {
    Classifier table_cls(catalog, {Granularity::kTable, 8, true});
    Classifier hor_cls(catalog,
                       {Granularity::kHorizontal,
                        workloads::kTimeSeriesPartitions, true});
    Classification t = ValueOrDie(table_cls.Classify(journal), "t");
    Classification h = ValueOrDie(hor_cls.Classify(journal), "h");
    std::printf(
        "\nEq. 17 bounds: table granularity %.2f, horizontal granularity "
        "%.2f (the ingest class itself).\n",
        TheoreticalMaxSpeedup(t), TheoreticalMaxSpeedup(h));
  }

  // Simulated throughput at 8 backends.
  Layout pt = ValueOrDie(
      BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                  HomogeneousBackends(8)),
      "t8");
  Layout ph = ValueOrDie(
      BuildLayout(catalog, journal,
                  {Granularity::kHorizontal, workloads::kTimeSeriesPartitions},
                  greedy, HomogeneousBackends(8)),
      "h8");
  ThroughputStats tt = ValueOrDie(SimulateSeeds(pt, 20000, 3, params), "st");
  ThroughputStats th = ValueOrDie(SimulateSeeds(ph, 20000, 3, params), "sh");
  std::printf(
      "simulated at 8 backends: table %.0f q/s, horizontal %.0f q/s "
      "(%.2fx)\n",
      tt.mean, th.mean, th.mean / tt.mean);
  std::printf(
      "shape: horizontal fragments isolate the append-only tail, so the "
      "read ranges scale like a read-only workload while table granularity "
      "pays the ingest weight on every backend.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E23: horizontal partitioning granularity (Section 3.1)\n");
  qcap::bench::Run();
  return 0;
}

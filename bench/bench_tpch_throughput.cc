// E3 / Figure 4(a): TPC-H throughput and speedup, 1-10 backends, for full
// replication, table-based, column-based, and random allocation.
//
// Paper shape: all strategies scale ~linearly except random (levels out at
// ~2.5x); table- and column-based beat full replication (specialization
// improves caching; vertical partitioning shrinks scans).
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/random_allocator.h"
#include "bench_util.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  const engine::CostModelParams params = TpchCostParams();
  constexpr uint64_t kRequests = 2000;
  constexpr size_t kSeeds = 3;

  FullReplicationAllocator full;
  GreedyAllocator greedy;

  PrintHeader("Figure 4(a): TPC-H throughput (queries/sec)",
              {"backends", "full-repl", "table", "column", "random"});

  double single_node = 0.0;
  std::vector<std::vector<double>> speedups(4);
  for (size_t n = 1; n <= 10; ++n) {
    struct Variant {
      Granularity granularity;
      Allocator* allocator;
    };
    const Variant variants[] = {
        {Granularity::kTable, &full},
        {Granularity::kTable, &greedy},
        {Granularity::kColumn, &greedy},
        {Granularity::kColumn, nullptr},  // Random: averaged over seeds.
    };
    std::vector<std::string> row = {std::to_string(n)};
    for (size_t v = 0; v < 4; ++v) {
      double mean = 0.0;
      if (variants[v].allocator != nullptr) {
        Layout p = ValueOrDie(
            BuildLayout(catalog, journal, {variants[v].granularity},
                        *variants[v].allocator, HomogeneousBackends(n)),
            "pipeline");
        ThroughputStats stats = ValueOrDie(
            SimulateSeeds(p, kRequests, kSeeds, params), "simulate");
        mean = stats.mean;
      } else {
        // The random baseline is itself random: average whole pipelines
        // over several placement seeds (the paper repeats each run 10x).
        constexpr size_t kPlacements = 5;
        for (size_t run = 0; run < kPlacements; ++run) {
          RandomAllocator random(1000 + 31 * n + run);
          Layout p = ValueOrDie(
              BuildLayout(catalog, journal, {variants[v].granularity}, random,
                          HomogeneousBackends(n)),
              "pipeline");
          SimStats stats =
              ValueOrDie(Simulate(p, kRequests, run + 1, params), "simulate");
          mean += stats.throughput;
        }
        mean /= static_cast<double>(kPlacements);
      }
      if (n == 1 && v == 0) single_node = mean;
      speedups[v].push_back(mean / single_node);
      row.push_back(Fmt(mean, 2));
    }
    PrintRow(row);
  }

  PrintHeader("Figure 4(a): speedup vs single node",
              {"backends", "full-repl", "table", "column", "random"});
  for (size_t n = 1; n <= 10; ++n) {
    PrintRow({std::to_string(n), Fmt(speedups[0][n - 1]),
              Fmt(speedups[1][n - 1]), Fmt(speedups[2][n - 1]),
              Fmt(speedups[3][n - 1])});
  }
  std::printf(
      "\npaper shape: linear scaling for full/table/column with "
      "column >= table >= full; random levels out around 2.5x.\n"
      "measured at 10 backends: full=%.1fx table=%.1fx column=%.1fx "
      "random=%.1fx\n",
      speedups[0][9], speedups[1][9], speedups[2][9], speedups[3][9]);
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E3: TPC-H read-only throughput (Figure 4a)\n");
  qcap::bench::Run();
  return 0;
}

// E8/E9/E18 / Figures 4(f) and 4(g): TPC-App speedup and throughput for
// full replication, table-based, and column-based allocation, 1-10
// backends, plus the Eq. 29/30 theoretical bounds.
//
// Paper shape: full replication saturates at ~2.6x (Amdahl bound 3.07 with
// 25% update weight); table-based reaches ~5.8x and column-based ~6.7x
// (bound |B|/1.3 = 7.7 from the 13% order_line write class).
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  const engine::CostModelParams params = TpcAppCostParams();
  constexpr uint64_t kRequests = 30000;
  constexpr size_t kSeeds = 3;

  FullReplicationAllocator full;
  MemeticOptions mopts;
  mopts.iterations = 40;
  mopts.population_size = 12;
  MemeticAllocator memetic(mopts);  // Greedy + evolutionary improvement.

  PrintHeader("Figure 4(g): TPC-App throughput (queries/sec)",
              {"backends", "full-repl", "table", "column"});
  double single_node = 0.0;
  std::vector<std::vector<double>> speedups(3);
  std::vector<std::vector<double>> model_speedups(3);
  for (size_t n = 1; n <= 10; ++n) {
    struct Variant {
      Granularity granularity;
      Allocator* allocator;
    };
    const Variant variants[] = {
        {Granularity::kTable, &full},
        {Granularity::kTable, &memetic},
        {Granularity::kColumn, &memetic},
    };
    std::vector<std::string> row = {std::to_string(n)};
    for (size_t v = 0; v < 3; ++v) {
      Layout p = ValueOrDie(
          BuildLayout(catalog, journal, {variants[v].granularity},
                      *variants[v].allocator, HomogeneousBackends(n)),
          "pipeline");
      ThroughputStats stats =
          ValueOrDie(SimulateSeeds(p, kRequests, kSeeds, params), "simulate");
      if (n == 1 && v == 0) single_node = stats.mean;
      speedups[v].push_back(stats.mean / single_node);
      model_speedups[v].push_back(p.model_speedup);
      row.push_back(Fmt(stats.mean, 0));
    }
    PrintRow(row);
  }

  PrintHeader("Figure 4(f): TPC-App speedup (simulated | model)",
              {"backends", "full-repl", "table", "column"}, 20);
  for (size_t n = 1; n <= 10; ++n) {
    std::vector<std::string> row = {std::to_string(n)};
    for (size_t v = 0; v < 3; ++v) {
      row.push_back(Fmt(speedups[v][n - 1]) + " | " +
                    Fmt(model_speedups[v][n - 1]));
    }
    PrintRow(row, 20);
  }

  // Eq. 29/30 footers.
  Classifier classifier(catalog, {Granularity::kTable, 4, true});
  Classification cls = ValueOrDie(classifier.Classify(journal), "classify");
  std::printf(
      "\nEq. 29 (Amdahl, full replication, 10 backends): %.2f (paper: 3.07; "
      "paper measured 2.6)\n",
      AmdahlFullReplicationSpeedup(cls, 10));
  std::printf(
      "Eq. 30 (max speedup from the 13%% order_line write class): %.2f "
      "(paper: 7.7; paper measured 5.8 table / 6.7 column)\n",
      TheoreticalMaxSpeedup(cls));
  std::printf(
      "measured at 10 backends: full=%.1fx table=%.1fx column=%.1fx\n",
      speedups[0][9], speedups[1][9], speedups[2][9]);
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E8/E9: TPC-App speedup and throughput (Figures 4f/4g)\n");
  qcap::bench::Run();
  return 0;
}

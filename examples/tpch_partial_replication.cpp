// TPC-H partial replication walkthrough: compares full replication against
// table- and column-granular query-centric allocation on a 6-node cluster
// and shows why the column-based layout wins (storage, caching, balance).
//
// Build & run:  ./build/examples/tpch_partial_replication
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/layout.h"
#include "cluster/simulator.h"
#include "workloads/tpch.h"

using namespace qcap;

namespace {

struct Outcome {
  double replication = 0.0;
  double speedup_model = 0.0;
  double throughput = 0.0;
};

Result<Outcome> Evaluate(const engine::Catalog& catalog,
                         const QueryJournal& journal, Granularity granularity,
                         Allocator& allocator, size_t nodes) {
  QCAP_ASSIGN_OR_RETURN(Layout layout,
                        BuildLayout(catalog, journal, {granularity}, allocator,
                                    HomogeneousBackends(nodes)));
  SimulationConfig config;
  config.cost_params.memory_bytes = 0.6 * 1024 * 1024 * 1024;
  config.seed = 7;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(layout.classification, layout.allocation,
                               layout.backends, config));
  QCAP_ASSIGN_OR_RETURN(SimStats stats, sim.RunClosed(1500, 4 * nodes));
  return Outcome{layout.degree_of_replication, layout.model_speedup,
                 stats.throughput};
}

}  // namespace

int main() {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  constexpr size_t kNodes = 6;

  std::printf("TPC-H SF1 (%.2f GiB), %zu backends, 10,000-query journal\n",
              catalog.TotalBytes() / (1024.0 * 1024.0 * 1024.0), kNodes);
  std::printf("%-22s %12s %14s %14s\n", "strategy", "replication",
              "model speedup", "sim q/s");

  FullReplicationAllocator full;
  GreedyAllocator greedy;
  struct Row {
    const char* name;
    Granularity granularity;
    Allocator* allocator;
  };
  const Row rows[] = {
      {"full replication", Granularity::kTable, &full},
      {"table-based", Granularity::kTable, &greedy},
      {"column-based", Granularity::kColumn, &greedy},
  };
  for (const Row& row : rows) {
    auto outcome =
        Evaluate(catalog, journal, row.granularity, *row.allocator, kNodes);
    if (!outcome.ok()) {
      std::fprintf(stderr, "%s failed: %s\n", row.name,
                   outcome.status().ToString().c_str());
      return 1;
    }
    std::printf("%-22s %12.2f %14.2f %14.1f\n", row.name,
                outcome->replication, outcome->speedup_model,
                outcome->throughput);
  }
  std::printf(
      "\ntakeaway: the query-centric column allocation answers every query "
      "locally while storing a fraction of the replicated bytes; smaller "
      "per-node data also means better cache behaviour, so it is the "
      "fastest configuration as well.\n");
  return 0;
}

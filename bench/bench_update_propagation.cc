// E22 (extension): update-synchronization protocols. The paper evaluates
// ROWA and notes primary copy / lazy replication "could be easily
// incorporated into our model and system" -- this bench quantifies what
// they would have bought on the TPC-App workload.
#include <cstdio>

#include "alloc/full_replication.h"
#include "alloc/memetic.h"
#include "bench_util.h"
#include "workloads/tpcapp.h"

namespace qcap::bench {
namespace {

void Run() {
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(200000);
  FullReplicationAllocator full;
  MemeticOptions mopts;
  mopts.iterations = 40;
  mopts.population_size = 12;
  MemeticAllocator memetic(mopts);

  struct Proto {
    const char* name;
    UpdatePropagation propagation;
  };
  const Proto protos[] = {
      {"rowa", UpdatePropagation::kRowa},
      {"primary-copy", UpdatePropagation::kPrimaryCopy},
      {"lazy", UpdatePropagation::kLazy},
  };

  for (auto [strategy, granularity, allocator] :
       {std::tuple<const char*, Granularity, Allocator*>{
            "full replication", Granularity::kTable, &full},
        {"column-based partial replication", Granularity::kColumn,
         &memetic}}) {
    Layout p = ValueOrDie(
        BuildLayout(catalog, journal, {granularity}, *allocator,
                    HomogeneousBackends(10)),
        "pipeline");
    PrintHeader(std::string("TPC-App, 10 backends, ") + strategy,
                {"protocol", "q/s", "avg resp (ms)", "max resp (ms)"}, 16);
    for (const Proto& proto : protos) {
      SimulationConfig config;
      config.cost_params = TpcAppCostParams();
      config.seed = 11;
      config.propagation = proto.propagation;
      auto sim = ClusterSimulator::Create(p.classification, p.allocation,
                                          p.backends, config);
      CheckOk(sim.status(), "simulator");
      auto stats = sim->RunClosed(30000, 40);
      CheckOk(stats.status(), "run");
      PrintRow({proto.name, Fmt(stats->throughput, 0),
                Fmt(stats->avg_response_seconds * 1000.0, 2),
                Fmt(stats->max_response_seconds * 1000.0, 1)},
               16);
    }
  }
  std::printf(
      "\nshape: primary copy removes the wait for the slowest replica "
      "(latency), lazy batching also removes secondary work (throughput); "
      "both benefit full replication far more than the partial allocation, "
      "which already minimizes replicated update work -- supporting the "
      "paper's choice to focus on ROWA.\n");
}

}  // namespace
}  // namespace qcap::bench

int main() {
  std::printf("E22: ROWA vs primary-copy vs lazy replication (extension)\n");
  qcap::bench::Run();
  return 0;
}

// Quickstart: classify a small query history, compute a partial
// replication with the greedy allocator, inspect the analytical metrics,
// and run the cluster simulator on the result.
//
// Build & run:  ./build/examples/quickstart
#include <cstdio>

#include "alloc/greedy.h"
#include "alloc/layout.h"
#include "cluster/simulator.h"
#include "common/strings.h"
#include "physical/physical_allocator.h"

using namespace qcap;

int main() {
  // 1. Describe the schema: three relations with row counts and types.
  engine::Catalog catalog;
  auto add_table = [&](const char* name, uint64_t rows) {
    engine::TableDef def;
    def.name = name;
    def.base_rows = rows;
    def.columns = {
        {"id", engine::ColumnType::kInt64, 0, true},
        {"payload", engine::ColumnType::kVarchar, 120, false},
    };
    Status st = catalog.AddTable(std::move(def));
    if (!st.ok()) {
      std::fprintf(stderr, "%s\n", st.ToString().c_str());
      return;
    }
  };
  add_table("accounts", 1000000);
  add_table("orders", 5000000);
  add_table("products", 200000);

  // 2. Record a query history (normally recorded live). Costs are
  //    per-execution seconds from your measurements or the optimizer.
  QueryJournal journal;
  journal.Record(Query::Read("account lookups", {"accounts"}, 0.002), 3000);
  journal.Record(Query::Read("order report", {"orders", "products"}, 0.050),
                 500);
  journal.Record(Query::Read("catalog browse", {"products"}, 0.004), 2500);
  journal.Record(Query::Update("order ingest", {"orders"}, 0.001), 5000);

  // 3. Allocation mode: classify at table granularity, allocate onto 4
  //    equal backends with the greedy first-fit heuristic (Algorithm 1),
  //    validate, and price the initial load of the layout.
  GreedyAllocator greedy;
  auto layout = BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                            HomogeneousBackends(4));
  if (!layout.ok()) {
    std::fprintf(stderr, "allocation failed: %s\n",
                 layout.status().ToString().c_str());
    return 1;
  }
  auto load = PhysicalAllocator().InitialLoad(
      layout->allocation, layout->classification.catalog, true);
  if (!load.ok()) {
    std::fprintf(stderr, "%s\n", load.status().ToString().c_str());
    return 1;
  }
  std::printf("%s",
              layout->allocation.ToString(layout->classification).c_str());
  std::printf("model speedup: %.2f of 4 (scale %.3f)\n",
              layout->model_speedup, layout->model_scale);
  std::printf("degree of replication: %.2f (full replication would be 4)\n",
              layout->degree_of_replication);
  std::printf("initial load: %s in %.1f s\n",
              FormatBytes(load->total_bytes).c_str(), load->duration_seconds);

  // 4. Query processing mode: drive the simulated cluster and measure.
  SimulationConfig config;
  config.seed = 42;
  auto sim = ClusterSimulator::Create(layout->classification,
                                      layout->allocation, layout->backends,
                                      config);
  auto stats = sim.ok() ? sim->RunClosed(20000, 16) : sim.status();
  if (!stats.ok()) {
    std::fprintf(stderr, "simulation failed: %s\n",
                 stats.status().ToString().c_str());
    return 1;
  }
  std::printf("simulated: %s\n", stats->ToString().c_str());
  return 0;
}

#include "alloc/layout.h"

#include <gtest/gtest.h>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "cluster/simulator.h"
#include "workloads/tpcapp.h"

namespace qcap {
namespace {

engine::Catalog SmallSchema() {
  engine::Catalog catalog;
  engine::TableDef a{"A", {{"k", engine::ColumnType::kInt64, 0, true}}, 1000};
  engine::TableDef b{"B", {{"k", engine::ColumnType::kInt64, 0, true}}, 1000};
  EXPECT_TRUE(catalog.AddTable(a).ok());
  EXPECT_TRUE(catalog.AddTable(b).ok());
  return catalog;
}

QueryJournal TwoReads() {
  QueryJournal journal;
  journal.Record(Query::Read("qa", {"A"}, 0.01), 100);
  journal.Record(Query::Read("qb", {"B"}, 0.01), 100);
  return journal;
}

/// Returns an allocation that places nothing, so Eq. 9 and 11 fail.
class EmptyAllocator : public Allocator {
 public:
  Result<Allocation> Allocate(
      const Classification& cls,
      const std::vector<BackendSpec>& backends) override {
    return Allocation(backends.size(), cls.catalog.size(), cls.reads.size(),
                      cls.updates.size());
  }
  std::string name() const override { return "empty"; }
};

TEST(LayoutTest, BuildsValidatedLayoutThenSimulates) {
  const engine::Catalog catalog = SmallSchema();
  GreedyAllocator greedy;
  auto layout =
      BuildLayout(catalog, TwoReads(), {}, greedy, HomogeneousBackends(2));
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_EQ(layout->classification.reads.size(), 2u);
  EXPECT_EQ(layout->backends.size(), 2u);
  EXPECT_EQ(layout->allocation.num_backends(), 2u);
  EXPECT_NEAR(layout->model_speedup, 2.0, 1e-6);
  EXPECT_NEAR(layout->model_scale, 1.0, 1e-6);
  EXPECT_NEAR(layout->degree_of_replication, 1.0, 1e-6);

  SimulationConfig config;
  config.seed = 3;
  auto sim = ClusterSimulator::Create(layout->classification,
                                      layout->allocation, layout->backends,
                                      config);
  ASSERT_TRUE(sim.ok()) << sim.status().ToString();
  auto stats = sim->RunClosed(500, 4);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->completed_total(), 500u);
}

TEST(LayoutTest, FullReplicationStoresOneCopyPerBackend) {
  const engine::Catalog catalog = workloads::TpcAppCatalog(10.0);
  FullReplicationAllocator full;
  auto layout = BuildLayout(catalog, workloads::TpcAppJournal(2000), {}, full,
                            HomogeneousBackends(3));
  ASSERT_TRUE(layout.ok()) << layout.status().ToString();
  EXPECT_NEAR(layout->degree_of_replication, 3.0, 1e-6);
}

TEST(LayoutTest, FailsAtEachStage) {
  const engine::Catalog catalog = SmallSchema();
  GreedyAllocator greedy;
  // Classification: an empty journal has nothing to classify.
  EXPECT_FALSE(
      BuildLayout(catalog, QueryJournal{}, {}, greedy, HomogeneousBackends(2))
          .ok());
  // Allocation: no backends to allocate onto.
  EXPECT_FALSE(BuildLayout(catalog, TwoReads(), {}, greedy, {}).ok());
  // Validation: an allocation that places nothing breaks Eq. 9 and 11.
  EmptyAllocator empty;
  EXPECT_FALSE(
      BuildLayout(catalog, TwoReads(), {}, empty, HomogeneousBackends(2))
          .ok());
}

}  // namespace
}  // namespace qcap

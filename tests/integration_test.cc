// End-to-end integration tests: classify -> allocate -> validate ->
// simulate, checking the qualitative results the paper reports.
#include <gtest/gtest.h>

#include "alloc/full_replication.h"
#include "alloc/greedy.h"
#include "alloc/layout.h"
#include "alloc/memetic.h"
#include "alloc/random_allocator.h"
#include "cluster/simulator.h"
#include "model/metrics.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

Result<double> SimulatedThroughput(const Layout& p, uint64_t requests,
                                   uint64_t seed,
                                   double memory_bytes = 2.0e9) {
  SimulationConfig config;
  config.cost_params.memory_bytes = memory_bytes;
  config.seed = seed;
  config.servers_per_backend = 2;
  QCAP_ASSIGN_OR_RETURN(
      ClusterSimulator sim,
      ClusterSimulator::Create(p.classification, p.allocation, p.backends,
                               config));
  QCAP_ASSIGN_OR_RETURN(SimStats stats,
                        sim.RunClosed(requests, 4 * p.backends.size()));
  return stats.throughput;
}

TEST(IntegrationTest, TpchAllStrategiesValidOn1To10Backends) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  FullReplicationAllocator full;
  GreedyAllocator greedy;
  RandomAllocator random(99);
  for (Allocator* a :
       std::initializer_list<Allocator*>{&full, &greedy, &random}) {
    for (size_t n : {1, 4, 10}) {
      auto p = BuildLayout(catalog, journal, {Granularity::kColumn}, *a,
                           HomogeneousBackends(n));
      ASSERT_TRUE(p.ok()) << a->name() << " n=" << n << ": "
                          << p.status().ToString();
    }
  }
}

TEST(IntegrationTest, TpchPartialReplicationSavesStorage) {
  // The headline claim: storage reduced by ~65% versus full replication at
  // 10 backends (r = 3.5 vs 10 for column-based allocation).
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  GreedyAllocator greedy;
  auto p = BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                       HomogeneousBackends(10));
  ASSERT_TRUE(p.ok()) << p.status().ToString();
  const double r = p->degree_of_replication;
  EXPECT_LT(r, 10.0 * 0.45);  // At least 55% below full replication.
  EXPECT_GE(r, 1.0);
  // Throughput-optimal: model speedup 10 on the read-only workload.
  EXPECT_NEAR(p->model_speedup, 10.0, 1e-6);
}

TEST(IntegrationTest, TpchTableBasedStoresMoreThanColumnBased) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(10000);
  GreedyAllocator greedy;
  auto table = BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                           HomogeneousBackends(10));
  auto column = BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                            HomogeneousBackends(10));
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE(column.ok());
  const double r_table = table->degree_of_replication;
  const double r_column = column->degree_of_replication;
  EXPECT_LT(r_column, r_table);
  // Table-based still uses > 80% of full replication's storage at TPC-H
  // (fact tables referenced everywhere).
  EXPECT_GT(r_table, 0.6 * 10.0);
}

TEST(IntegrationTest, TpchColumnBeatsFullReplicationInSimulation) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(5000);
  GreedyAllocator greedy;
  FullReplicationAllocator full;
  auto column = BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                            HomogeneousBackends(8));
  auto fullrep = BuildLayout(catalog, journal, {Granularity::kTable}, full,
                             HomogeneousBackends(8));
  ASSERT_TRUE(column.ok());
  ASSERT_TRUE(fullrep.ok());
  auto t_column = SimulatedThroughput(column.value(), 3000, 1);
  auto t_full = SimulatedThroughput(fullrep.value(), 3000, 1);
  ASSERT_TRUE(t_column.ok());
  ASSERT_TRUE(t_full.ok());
  // Column-based specialization wins (better caching + smaller scans).
  EXPECT_GT(t_column.value(), t_full.value());
}

TEST(IntegrationTest, TpchRandomAllocationUnderperformsGreedy) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  const QueryJournal journal = workloads::TpchJournal(5000);
  GreedyAllocator greedy;
  RandomAllocator random(1234);
  auto g = BuildLayout(catalog, journal, {Granularity::kColumn}, greedy,
                       HomogeneousBackends(8));
  auto r = BuildLayout(catalog, journal, {Granularity::kColumn}, random,
                       HomogeneousBackends(8));
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(r.ok());
  auto tg = SimulatedThroughput(g.value(), 3000, 1);
  auto tr = SimulatedThroughput(r.value(), 3000, 1);
  ASSERT_TRUE(tg.ok());
  ASSERT_TRUE(tr.ok());
  EXPECT_GT(tg.value(), 1.5 * tr.value());
}

TEST(IntegrationTest, TpcAppPartialReplicationBeatsFullReplication) {
  // The update-heavy workload: the paper reports a 2.4x advantage at 10
  // backends; we require a clear win. The full allocation pipeline is
  // greedy + memetic improvement (Algorithm 1 seeding Algorithm 2).
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(50000);
  MemeticOptions mopts;
  mopts.iterations = 30;
  mopts.population_size = 9;
  MemeticAllocator memetic(mopts);
  FullReplicationAllocator full;
  auto g = BuildLayout(catalog, journal, {Granularity::kTable}, memetic,
                       HomogeneousBackends(10));
  auto f = BuildLayout(catalog, journal, {Granularity::kTable}, full,
                       HomogeneousBackends(10));
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  ASSERT_TRUE(f.ok());
  // Model speedups: the partial allocation escapes the 25% serial bound.
  const double partial_speedup = g->model_speedup;
  const double full_amdahl =
      AmdahlFullReplicationSpeedup(g->classification, 10);
  EXPECT_GT(partial_speedup, 1.5 * full_amdahl);

  auto tg = SimulatedThroughput(g.value(), 20000, 1);
  auto tf = SimulatedThroughput(f.value(), 20000, 1);
  ASSERT_TRUE(tg.ok());
  ASSERT_TRUE(tf.ok());
  EXPECT_GT(tg.value(), 1.5 * tf.value());
}

TEST(IntegrationTest, TpcAppSpeedupNearTheoreticalBound) {
  // Eq. 30: order_line writes (~13%) bound the speedup at |B|/1.3 = 7.7.
  const engine::Catalog catalog = workloads::TpcAppCatalog(300.0);
  const QueryJournal journal = workloads::TpcAppJournal(50000);
  GreedyAllocator greedy;
  MemeticOptions mopts;
  mopts.iterations = 30;
  mopts.population_size = 9;
  MemeticAllocator memetic(mopts);
  auto g = BuildLayout(catalog, journal, {Granularity::kTable}, greedy,
                       HomogeneousBackends(10));
  auto m = BuildLayout(catalog, journal, {Granularity::kTable}, memetic,
                       HomogeneousBackends(10));
  ASSERT_TRUE(g.ok());
  ASSERT_TRUE(m.ok());
  const double bound = TheoreticalMaxSpeedup(m->classification);
  const double memetic_speedup = m->model_speedup;
  EXPECT_LE(memetic_speedup, bound + 1e-6);
  EXPECT_GT(memetic_speedup, 0.70 * bound);  // "close to the theoretical max".
  // The greedy seed alone is weaker but must still beat the full
  // replication Amdahl ceiling.
  EXPECT_GT(g->model_speedup,
            AmdahlFullReplicationSpeedup(g->classification, 10));
}

}  // namespace
}  // namespace qcap

#include "alloc/advisor.h"

#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "common/thread_pool.h"
#include "workloads/timeseries.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

TEST(AdvisorTest, TpchPrefersColumnarGranularity) {
  // Read-only TPC-H: every granularity reaches full speedup, so the
  // storage tiebreak picks the column (or hybrid) classification.
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  GreedyAllocator greedy;
  PartitioningAdvisor advisor(catalog, &greedy);
  auto choice = advisor.Advise(workloads::TpchJournal(1900),
                               HomogeneousBackends(8));
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->evaluated.size(), 3u);
  EXPECT_TRUE(choice->best.granularity == Granularity::kColumn ||
              choice->best.granularity == Granularity::kHybrid);
  // Every candidate hits the read-only speedup.
  for (const auto& candidate : choice->evaluated) {
    EXPECT_NEAR(candidate.layout.model_speedup, 8.0, 1e-6);
  }
  // The winner stores less than table granularity.
  double table_replication = 0.0;
  for (const auto& candidate : choice->evaluated) {
    if (candidate.granularity == Granularity::kTable) {
      table_replication = candidate.layout.degree_of_replication;
    }
  }
  EXPECT_LT(choice->best.layout.degree_of_replication, table_replication);
}

TEST(AdvisorTest, TimeSeriesPrefersHorizontal) {
  const engine::Catalog catalog = workloads::TimeSeriesCatalog(1.0);
  GreedyAllocator greedy;
  AdvisorOptions options;
  options.candidates = {Granularity::kTable, Granularity::kColumn,
                        Granularity::kHorizontal};
  options.horizontal_partitions = workloads::kTimeSeriesPartitions;
  PartitioningAdvisor advisor(catalog, &greedy, options);
  auto choice = advisor.Advise(workloads::TimeSeriesJournal(50000),
                               HomogeneousBackends(8));
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_EQ(choice->best.granularity, Granularity::kHorizontal);
  EXPECT_GT(choice->best.layout.model_speedup, 6.0);
}

TEST(AdvisorTest, SingleCandidateWorks) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  GreedyAllocator greedy;
  AdvisorOptions options;
  options.candidates = {Granularity::kTable};
  PartitioningAdvisor advisor(catalog, &greedy, options);
  auto choice = advisor.Advise(workloads::TpchJournal(1900),
                               HomogeneousBackends(4));
  ASSERT_TRUE(choice.ok());
  EXPECT_EQ(choice->best.granularity, Granularity::kTable);
  EXPECT_EQ(choice->evaluated.size(), 1u);
}

TEST(AdvisorTest, NullAllocatorFallsBackToOwnedMemetic) {
  // With no external allocator, the advisor runs its own MemeticAllocator
  // configured from AdvisorOptions::memetic.
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  AdvisorOptions options;
  options.candidates = {Granularity::kTable};
  options.memetic.population_size = 9;
  options.memetic.iterations = 6;
  PartitioningAdvisor advisor(catalog, nullptr, options);
  auto choice =
      advisor.Advise(workloads::TpchJournal(1900), HomogeneousBackends(4));
  ASSERT_TRUE(choice.ok()) << choice.status().ToString();
  EXPECT_NEAR(choice->best.layout.model_speedup, 4.0, 1e-6);
}

TEST(AdvisorTest, PoolDoesNotChangeTheChoice) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  GreedyAllocator greedy;
  PartitioningAdvisor serial_advisor(catalog, &greedy);
  auto serial = serial_advisor.Advise(workloads::TpchJournal(1900),
                                      HomogeneousBackends(6));
  ASSERT_TRUE(serial.ok());

  ThreadPool pool(3);
  AdvisorOptions options;
  options.pool = &pool;
  PartitioningAdvisor parallel_advisor(catalog, &greedy, options);
  auto parallel = parallel_advisor.Advise(workloads::TpchJournal(1900),
                                          HomogeneousBackends(6));
  ASSERT_TRUE(parallel.ok());

  EXPECT_EQ(parallel->best.granularity, serial->best.granularity);
  EXPECT_DOUBLE_EQ(parallel->best.layout.model_speedup,
                   serial->best.layout.model_speedup);
  EXPECT_DOUBLE_EQ(parallel->best.layout.degree_of_replication,
                   serial->best.layout.degree_of_replication);
  ASSERT_EQ(parallel->evaluated.size(), serial->evaluated.size());
  for (size_t i = 0; i < serial->evaluated.size(); ++i) {
    EXPECT_EQ(parallel->evaluated[i].granularity,
              serial->evaluated[i].granularity);
  }
}

TEST(AdvisorTest, RejectsBadInput) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  GreedyAllocator greedy;
  AdvisorOptions empty;
  empty.candidates = {};
  PartitioningAdvisor no_candidates(catalog, &greedy, empty);
  EXPECT_FALSE(no_candidates
                   .Advise(workloads::TpchJournal(100), HomogeneousBackends(2))
                   .ok());
  // Empty journal: every candidate fails to classify.
  PartitioningAdvisor advisor(catalog, &greedy);
  QueryJournal empty_journal;
  EXPECT_FALSE(advisor.Advise(empty_journal, HomogeneousBackends(2)).ok());
}

TEST(AdvisorTest, EvaluatedCandidatesCarryConsistentMetrics) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  GreedyAllocator greedy;
  PartitioningAdvisor advisor(catalog, &greedy);
  auto choice = advisor.Advise(workloads::TpchJournal(1900),
                               HomogeneousBackends(5));
  ASSERT_TRUE(choice.ok());
  for (const auto& candidate : choice->evaluated) {
    EXPECT_GT(candidate.layout.model_speedup, 0.0);
    EXPECT_GE(candidate.layout.degree_of_replication, 1.0 - 1e-9);
    EXPECT_EQ(candidate.layout.allocation.num_backends(), 5u);
    EXPECT_EQ(candidate.layout.allocation.num_fragments(),
              candidate.layout.classification.catalog.size());
  }
}

}  // namespace
}  // namespace qcap

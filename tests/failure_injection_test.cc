// Failure injection: backends crashing mid-run, and what k-safety buys.
#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "alloc/ksafety.h"
#include "cluster/simulator.h"
#include "model/validation.h"
#include "workload/classifier.h"
#include "workloads/tpcapp.h"

namespace qcap {
namespace {

struct Fixture {
  engine::Catalog catalog = workloads::TpcAppCatalog(100.0);
  Classification cls;
  std::vector<BackendSpec> backends = HomogeneousBackends(5);

  Fixture() {
    Classifier classifier(catalog, {Granularity::kTable, 4, true});
    auto result = classifier.Classify(workloads::TpcAppJournal(20000));
    EXPECT_TRUE(result.ok());
    cls = std::move(result).value();
  }

  Result<SimStats> Run(const Allocation& alloc, FaultPlan faults) {
    SimulationConfig config;
    config.seed = 9;
    config.fault_plan = std::move(faults);
    QCAP_ASSIGN_OR_RETURN(
        ClusterSimulator sim,
        ClusterSimulator::Create(cls, alloc, backends, config));
    return sim.RunOpen(30.0, 400.0);
  }
};

TEST(FailureInjectionTest, NoFailuresNoLosses) {
  Fixture fx;
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok());
  auto stats = fx.Run(alloc.value(), {});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->failed_requests, 0u);
  EXPECT_EQ(stats->rejected_requests, 0u);
  EXPECT_GT(stats->completed_total(), 10000u);
}

TEST(FailureInjectionTest, UnprotectedAllocationRejectsAfterCrash) {
  Fixture fx;
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok());
  // Kill every backend holding some class exclusively: find a fragment
  // with exactly one replica and kill its backend.
  size_t victim = fx.backends.size();
  for (FragmentId f = 0; f < alloc->num_fragments() && victim == 5; ++f) {
    if (alloc->ReplicaCount(f) == 1) {
      for (size_t b = 0; b < 5; ++b) {
        if (alloc->IsPlaced(b, f)) victim = b;
      }
    }
  }
  ASSERT_LT(victim, 5u) << "expected at least one exclusive fragment";
  auto stats = fx.Run(alloc.value(), FaultPlan().Crash(10.0, victim));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Work in flight on the victim is lost and later requests for its
  // exclusive classes are rejected.
  EXPECT_GT(stats->rejected_requests, 0u);
}

TEST(FailureInjectionTest, KSafeAllocationSurvivesSingleCrash) {
  Fixture fx;
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  auto alloc = ksafe.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
  for (size_t victim = 0; victim < 5; ++victim) {
    auto stats = fx.Run(alloc.value(), FaultPlan().Crash(10.0, victim));
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->rejected_requests, 0u) << "victim " << victim;
    // In-flight losses at the crash instant are expected; rejections not.
    EXPECT_GT(stats->completed_total(), 8000u);
  }
}

TEST(FailureInjectionTest, ThroughputDegradesGracefully) {
  Fixture fx;
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  auto alloc = ksafe.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok());
  auto healthy = fx.Run(alloc.value(), {});
  auto degraded = fx.Run(alloc.value(), FaultPlan().Crash(5.0, 2));
  ASSERT_TRUE(healthy.ok());
  ASSERT_TRUE(degraded.ok());
  // Conservation: every arrival is completed, failed, or rejected — and the
  // arrival stream is identical across the two runs.
  EXPECT_EQ(degraded->completed_total() + degraded->failed_requests +
                degraded->rejected_requests,
            healthy->completed_total());
  // Still serving the vast majority of the offered load.
  EXPECT_GT(degraded->completed_total(),
            static_cast<uint64_t>(0.6 * healthy->completed_total()));
}

TEST(FailureInjectionTest, DoubleCrashNeedsKTwo) {
  Fixture fx;
  KSafeGreedyAllocator k1({1, 1e-12, 0});
  KSafeGreedyAllocator k2({2, 1e-12, 0});
  auto a1 = k1.Allocate(fx.cls, fx.backends);
  auto a2 = k2.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(a1.ok());
  ASSERT_TRUE(a2.ok());
  // Find two backends whose joint loss strands a class under k=1: try all
  // pairs and record worst-case rejections.
  uint64_t worst_k1 = 0, worst_k2 = 0;
  for (size_t x = 0; x < 5; ++x) {
    for (size_t y = x + 1; y < 5; ++y) {
      const FaultPlan faults = FaultPlan().Crash(5.0, x).Crash(6.0, y);
      auto s1 = fx.Run(a1.value(), faults);
      auto s2 = fx.Run(a2.value(), faults);
      ASSERT_TRUE(s1.ok());
      ASSERT_TRUE(s2.ok());
      worst_k1 = std::max(worst_k1, s1->rejected_requests);
      worst_k2 = std::max(worst_k2, s2->rejected_requests);
    }
  }
  EXPECT_GT(worst_k1, 0u);   // Some pair strands a class under k=1.
  EXPECT_EQ(worst_k2, 0u);   // k=2 survives every pair.
}

TEST(FailureInjectionTest, ClosedLoopSurvivesCrashAndRecover) {
  Fixture fx;
  KSafeGreedyAllocator ksafe({1, 1e-12, 0});
  auto alloc = ksafe.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok());
  SimulationConfig config;
  config.seed = 9;
  config.fault_plan.Crash(0.5, 2);
  config.fault_plan.Recover(2.0, 2);
  auto sim =
      ClusterSimulator::Create(fx.cls, alloc.value(), fx.backends, config);
  ASSERT_TRUE(sim.ok());
  auto stats = sim->RunClosed(20000, 16);
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // A k=1-safe layout serves the whole closed-loop run across the outage:
  // every request is eventually completed (conservation), none rejected.
  EXPECT_EQ(stats->rejected_requests, 0u);
  EXPECT_EQ(stats->failed_requests, 0u);
  EXPECT_EQ(stats->completed_total(), 20000u);
}

TEST(FailureInjectionTest, BadFailureIndexRejected) {
  Fixture fx;
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(fx.cls, fx.backends);
  ASSERT_TRUE(alloc.ok());
  SimulationConfig config;
  config.fault_plan.Crash(1.0, 99);
  auto sim = ClusterSimulator::Create(fx.cls, alloc.value(), fx.backends,
                                      config);
  ASSERT_TRUE(sim.ok());
  EXPECT_FALSE(sim->RunOpen(10.0, 10.0).ok());
}

}  // namespace
}  // namespace qcap

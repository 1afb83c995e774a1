#include "physical/physical_allocator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "counting_new.h"
#include "physical/scaling.h"
#include "solver/hungarian.h"
#include "test_util.h"

namespace qcap {
namespace {

TEST(EtlCostModelTest, ZeroBytesZeroSeconds) {
  EtlCostModel model;
  EXPECT_DOUBLE_EQ(model.BackendSeconds(0.0, true), 0.0);
}

TEST(EtlCostModelTest, PrepareStageOnlyWhenRequested) {
  EtlCostModel model;
  const double bytes = 1e9;
  EXPECT_GT(model.BackendSeconds(bytes, true),
            model.BackendSeconds(bytes, false));
}

TEST(EtlCostModelTest, MonotonicInBytes) {
  EtlCostModel model;
  EXPECT_LT(model.BackendSeconds(1e6, true), model.BackendSeconds(1e9, true));
}

TEST(PhysicalTest, IdenticalAllocationsCostNothing) {
  const Classification cls = testutil::Figure2Classification();
  Allocation a(2, 3, 4, 0);
  a.PlaceSet(0, {0, 1});
  a.PlaceSet(1, {1, 2});
  PhysicalAllocator physical;
  auto plan = physical.Plan(a, a, cls.catalog);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_DOUBLE_EQ(plan->total_bytes, 0.0);
  EXPECT_DOUBLE_EQ(plan->duration_seconds, 0.0);
  EXPECT_TRUE(plan->decommissioned.empty());
}

TEST(PhysicalTest, MatchingAvoidsNeedlessMoves) {
  // New allocation is the old one with backends swapped; matching should
  // discover the permutation and move zero bytes.
  const Classification cls = testutil::Figure2Classification();
  Allocation old_alloc(2, 3, 4, 0);
  old_alloc.PlaceSet(0, {0, 1});
  old_alloc.PlaceSet(1, {2});
  Allocation new_alloc(2, 3, 4, 0);
  new_alloc.PlaceSet(0, {2});
  new_alloc.PlaceSet(1, {0, 1});
  PhysicalAllocator physical;
  auto plan = physical.Plan(old_alloc, new_alloc, cls.catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_bytes, 0.0);
  EXPECT_EQ(plan->source_of[0], 1);
  EXPECT_EQ(plan->source_of[1], 0);
}

TEST(PhysicalTest, Eq27CostIsMissingBytesOnly) {
  const Classification cls = testutil::Figure2Classification();
  Allocation old_alloc(1, 3, 4, 0);
  old_alloc.PlaceSet(0, {0});
  Allocation new_alloc(1, 3, 4, 0);
  new_alloc.PlaceSet(0, {0, 1, 2});
  PhysicalAllocator physical;
  auto plan = physical.Plan(old_alloc, new_alloc, cls.catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_bytes, 2.0);  // B and C move; A stays.
}

TEST(PhysicalTest, ScaleOutUsesFreshNodes) {
  const Classification cls = testutil::Figure2Classification();
  Allocation old_alloc(1, 3, 4, 0);
  old_alloc.PlaceSet(0, {0, 1, 2});
  Allocation new_alloc(3, 3, 4, 0);
  new_alloc.PlaceSet(0, {0, 1, 2});
  new_alloc.PlaceSet(1, {0});
  new_alloc.PlaceSet(2, {2});
  PhysicalAllocator physical;
  auto plan = physical.Plan(old_alloc, new_alloc, cls.catalog);
  ASSERT_TRUE(plan.ok());
  // The full-image backend should keep the existing node (cost 0).
  EXPECT_EQ(plan->source_of[0], 0);
  EXPECT_EQ(plan->source_of[1], -1);
  EXPECT_EQ(plan->source_of[2], -1);
  EXPECT_DOUBLE_EQ(plan->total_bytes, 2.0);
  EXPECT_TRUE(plan->decommissioned.empty());
}

TEST(PhysicalTest, ScaleInDecommissionsSurplus) {
  const Classification cls = testutil::Figure2Classification();
  Allocation old_alloc(3, 3, 4, 0);
  old_alloc.PlaceSet(0, {0});
  old_alloc.PlaceSet(1, {1});
  old_alloc.PlaceSet(2, {2});
  Allocation new_alloc(2, 3, 4, 0);
  new_alloc.PlaceSet(0, {0, 1});
  new_alloc.PlaceSet(1, {2});
  PhysicalAllocator physical;
  auto plan = physical.Plan(old_alloc, new_alloc, cls.catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ(plan->decommissioned.size(), 1u);
  // Only one byte-unit (A or B joining the other) needs to move.
  EXPECT_DOUBLE_EQ(plan->total_bytes, 1.0);
}

TEST(PhysicalTest, InitialLoadMovesEverything) {
  const Classification cls = testutil::Figure2Classification();
  Allocation new_alloc(2, 3, 4, 0);
  new_alloc.PlaceSet(0, {0, 1});
  new_alloc.PlaceSet(1, {1, 2});
  PhysicalAllocator physical;
  auto plan = physical.InitialLoad(new_alloc, cls.catalog);
  ASSERT_TRUE(plan.ok());
  EXPECT_DOUBLE_EQ(plan->total_bytes, 4.0);
  EXPECT_GT(plan->duration_seconds, 0.0);
}

TEST(PhysicalTest, RejectsMismatchedCatalogs) {
  const Classification cls = testutil::Figure2Classification();
  Allocation a(1, 2, 0, 0);
  Allocation b(1, 3, 0, 0);
  PhysicalAllocator physical;
  EXPECT_FALSE(physical.Plan(a, b, cls.catalog).ok());
}

TEST(ScalingTest, MergeAllocationsCoversAllSegments) {
  const Classification cls = testutil::Figure2Classification();
  Allocation s1(2, 3, 4, 0);
  s1.PlaceSet(0, {0});
  s1.PlaceSet(1, {1, 2});
  Allocation s2(2, 3, 4, 0);
  s2.PlaceSet(0, {1});  // Aligned backend should reuse overlap.
  s2.PlaceSet(1, {0, 2});
  auto merged = MergeAllocations({s1, s2}, cls.catalog);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  // Every segment's per-backend fragment set is contained in some merged
  // backend.
  for (const Allocation* seg : {&s1, &s2}) {
    for (size_t b = 0; b < 2; ++b) {
      bool covered = false;
      for (size_t m = 0; m < 2; ++m) {
        if (merged->HoldsAll(m, seg->BackendFragments(b))) covered = true;
      }
      EXPECT_TRUE(covered);
    }
  }
}

TEST(ScalingTest, MergeRejectsMismatchedSegments) {
  const Classification cls = testutil::Figure2Classification();
  Allocation a(2, 3, 4, 0), b(3, 3, 4, 0);
  EXPECT_FALSE(MergeAllocations({a, b}, cls.catalog).ok());
  EXPECT_FALSE(MergeAllocations({}, cls.catalog).ok());
}

/// \p n fragments with irregular sizes, so a different summation order
/// would show in the low bits of a byte total.
FragmentCatalog RandomCatalog(size_t n, Rng* rng) {
  FragmentCatalog catalog;
  for (size_t f = 0; f < n; ++f) {
    EXPECT_TRUE(catalog
                    .Add("f" + std::to_string(f), "t", FragmentKind::kColumn,
                         rng->NextDouble() * 1e9 + 0.1)
                    .ok());
  }
  return catalog;
}

Allocation RandomPlacement(size_t backends, size_t fragments, Rng* rng) {
  Allocation a(backends, fragments, 0, 0);
  for (size_t b = 0; b < backends; ++b) {
    const double density = rng->NextDouble();
    for (FragmentId f = 0; f < fragments; ++f) {
      if (rng->NextBernoulli(density)) a.Place(b, f);
    }
  }
  return a;
}

/// Plan as Eq. 27 states it, from materialized fragment sets.
TransitionPlan ReferencePlan(const Allocation& old_alloc,
                             const Allocation& new_alloc,
                             const FragmentCatalog& catalog) {
  const size_t new_n = new_alloc.num_backends();
  const size_t old_n = old_alloc.num_backends();
  const size_t n = std::max(new_n, old_n);
  std::vector<std::vector<double>> cost(n, std::vector<double>(n, 0.0));
  for (size_t v = 0; v < new_n; ++v) {
    for (size_t u = 0; u < n; ++u) {
      cost[v][u] =
          u < old_n ? catalog.SetBytes(SetDifference(
                          new_alloc.BackendFragments(v),
                          old_alloc.BackendFragments(u)))
                    : catalog.SetBytes(new_alloc.BackendFragments(v));
    }
  }
  const auto matching = SolveAssignment(cost);
  EXPECT_TRUE(matching.ok());
  TransitionPlan plan;
  const EtlCostModel model;
  for (size_t v = 0; v < n; ++v) {
    const size_t u = matching->assignment[v];
    if (v < new_n) {
      plan.source_of.push_back(u < old_n ? static_cast<int>(u) : -1);
      plan.move_bytes.push_back(cost[v][u]);
      plan.total_bytes += cost[v][u];
      plan.duration_seconds = std::max(plan.duration_seconds,
                                       model.BackendSeconds(cost[v][u], true));
    } else if (u < old_n) {
      plan.decommissioned.push_back(u);
    }
  }
  std::sort(plan.decommissioned.begin(), plan.decommissioned.end());
  return plan;
}

TEST(PhysicalTest, PlanMatchesSetDifferenceCostsBitForBit) {
  Rng rng(17);
  const FragmentCatalog catalog = RandomCatalog(150, &rng);
  // Same, more and fewer backends than before.
  for (const auto& [old_n, new_n] :
       std::vector<std::pair<size_t, size_t>>{{5, 5}, {3, 7}, {8, 2}}) {
    for (int round = 0; round < 10; ++round) {
      const Allocation old_alloc = RandomPlacement(old_n, 150, &rng);
      const Allocation new_alloc = RandomPlacement(new_n, 150, &rng);
      const auto plan = PhysicalAllocator().Plan(old_alloc, new_alloc, catalog);
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      const TransitionPlan want = ReferencePlan(old_alloc, new_alloc, catalog);
      EXPECT_EQ(plan->source_of, want.source_of);
      EXPECT_EQ(plan->decommissioned, want.decommissioned);
      EXPECT_EQ(plan->move_bytes, want.move_bytes);  // Exact doubles.
      EXPECT_EQ(plan->total_bytes, want.total_bytes);
      EXPECT_EQ(plan->duration_seconds, want.duration_seconds);
    }
  }
}

TEST(ScalingTest, MergeMatchesSetDifferenceAlignment) {
  Rng rng(23);
  const FragmentCatalog catalog = RandomCatalog(130, &rng);
  std::vector<Allocation> segments;
  for (int s = 0; s < 4; ++s) segments.push_back(RandomPlacement(5, 130, &rng));
  // The merge as specified: align each segment by SetBytes(SetDifference)
  // costs, then union its fragment sets into the matched backends.
  Allocation want = segments[0];
  for (size_t s = 1; s < segments.size(); ++s) {
    std::vector<std::vector<double>> cost(5, std::vector<double>(5));
    for (size_t v = 0; v < 5; ++v) {
      for (size_t u = 0; u < 5; ++u) {
        cost[v][u] = catalog.SetBytes(SetDifference(
            segments[s].BackendFragments(v), want.BackendFragments(u)));
      }
    }
    const auto matching = SolveAssignment(cost);
    ASSERT_TRUE(matching.ok());
    for (size_t v = 0; v < 5; ++v) {
      want.PlaceSet(matching->assignment[v], segments[s].BackendFragments(v));
    }
  }
  const auto merged = MergeAllocations(segments, catalog);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();
  EXPECT_EQ(testutil::AllocationDigest(*merged),
            testutil::AllocationDigest(want));
}

/// Heap allocations of one Plan between two random 16-backend allocations
/// over \p fragments fragments.
uint64_t PlanAllocations(size_t fragments) {
  Rng rng(fragments);
  const FragmentCatalog catalog = RandomCatalog(fragments, &rng);
  const Allocation old_alloc = RandomPlacement(16, fragments, &rng);
  const Allocation new_alloc = RandomPlacement(16, fragments, &rng);
  const PhysicalAllocator physical;
  const uint64_t before = testutil::heap_allocations.load();
  const auto plan = physical.Plan(old_alloc, new_alloc, catalog);
  const uint64_t allocations = testutil::heap_allocations.load() - before;
  EXPECT_TRUE(plan.ok());
  return allocations;
}

TEST(PhysicalTest, PlanAllocationsDoNotGrowWithFragments) {
  // The cost cells come straight from the placement rows: no fragment set
  // is materialized, so the allocation count depends on the backend count
  // alone (cost matrix, solver arrays, plan vectors).
  const uint64_t at700 = PlanAllocations(700);
  const uint64_t at1400 = PlanAllocations(1400);
  EXPECT_GT(at700, 0u);
  EXPECT_EQ(at700, at1400);
  EXPECT_LT(at700, 50u);
}

}  // namespace
}  // namespace qcap

#include "physical/physical_allocator.h"

#include <gtest/gtest.h>

#include "physical/scaling.h"
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

}  // namespace
}  // namespace qcap

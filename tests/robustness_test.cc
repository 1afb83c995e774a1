#include "alloc/robustness.h"

#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "model/metrics.h"
#include "model/validation.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/journal_synth.h"

namespace qcap {
namespace {

/// The paper's Figure 2 four-backend allocation: B1={A} C1 25%,
/// B2={A,B} C1 5% + C4 20%, B3={B} C2 25%, B4={C} C3 25%.
Allocation Figure2FourBackends(const Classification& /*cls*/) {
  Allocation a(4, 3, 4, 0);
  a.Place(0, 0);
  a.PlaceSet(1, {0, 1});
  a.Place(2, 1);
  a.Place(3, 2);
  a.set_read_assign(0, 0, 0.25);
  a.set_read_assign(1, 0, 0.05);
  a.set_read_assign(1, 3, 0.20);
  a.set_read_assign(2, 1, 0.25);
  a.set_read_assign(3, 2, 0.25);
  return a;
}

TEST(RobustnessTest, PaperExampleC3To27PercentDropsSpeedupTo3_7) {
  // Section 5: "if the weight of Query Class C is increased to 27%, the
  // maximum achievable speedup is reduced to 3.7 instead of 4. This is the
  // worst case since C is the only class allocated on B4."
  const Classification cls = testutil::Figure2Classification();
  const Allocation a = Figure2FourBackends(cls);
  const auto backends = HomogeneousBackends(4);
  ASSERT_NEAR(Speedup(a, backends), 4.0, 1e-9);

  auto perturbed = PerturbedSpeedup(cls, a, backends, /*C3=*/2, 0.27, false);
  ASSERT_TRUE(perturbed.ok()) << perturbed.status().ToString();
  EXPECT_NEAR(perturbed.value(), 4.0 / (0.27 / 0.25), 1e-9);  // ~3.7.
  EXPECT_NEAR(perturbed.value(), 3.7, 0.01);
  // Shifting cannot help: C lives only on B4.
  auto shifted = PerturbedSpeedup(cls, a, backends, 2, 0.27, true);
  ASSERT_TRUE(shifted.ok());
  EXPECT_NEAR(shifted.value(), 3.7, 0.01);
}

TEST(RobustnessTest, ReplicatedClassAbsorbsPerturbationByShifting) {
  // C1 lives on B1 and B2; raising C1's weight can be absorbed by shifting
  // weight between them... but both are full, so check a class sharing
  // capacity: raise C1 to 32% -> B2's C4 cannot move (only on B2), but C1
  // can move toward B1; without shifting B1 is at 25%+2% extra.
  const Classification cls = testutil::Figure2Classification();
  const Allocation a = Figure2FourBackends(cls);
  const auto backends = HomogeneousBackends(4);
  auto rigid = PerturbedSpeedup(cls, a, backends, /*C1=*/0, 0.32, false);
  auto shifted = PerturbedSpeedup(cls, a, backends, 0, 0.32, true);
  ASSERT_TRUE(rigid.ok());
  ASSERT_TRUE(shifted.ok());
  EXPECT_GE(shifted.value() + 1e-9, rigid.value());
}

TEST(RobustnessTest, WeightToleranceZeroForExclusiveFullBackend) {
  const Classification cls = testutil::Figure2Classification();
  const Allocation a = Figure2FourBackends(cls);
  const auto backends = HomogeneousBackends(4);
  // C3 is alone on a full backend: no headroom at scale 1.
  auto tolerance = WeightTolerance(cls, a, backends, 2);
  ASSERT_TRUE(tolerance.ok()) << tolerance.status().ToString();
  EXPECT_NEAR(tolerance.value(), 0.0, 1e-9);
}

TEST(RobustnessTest, HeadroomRestoresTolerance) {
  const Classification cls = testutil::Figure2Classification();
  const Allocation a = Figure2FourBackends(cls);
  const auto backends = HomogeneousBackends(4);
  RobustnessOptions options;
  options.required_headroom = 0.08;  // Tolerate +8% of each class's weight.
  auto robust = AddRobustnessHeadroom(cls, a, backends, options);
  ASSERT_TRUE(robust.ok()) << robust.status().ToString();
  // More replicas than before...
  EXPECT_GT(DegreeOfReplication(robust.value(), cls.catalog),
            DegreeOfReplication(a, cls.catalog));
  // ...and the paper's worst case is now absorbed by shifting: the only
  // remaining loss is the +2% of total work itself (4 / 1.02).
  auto shifted = PerturbedSpeedup(cls, robust.value(), backends, 2, 0.27, true);
  ASSERT_TRUE(shifted.ok());
  EXPECT_NEAR(shifted.value(), 4.0 / 1.02, 1e-6);
}

TEST(RobustnessTest, RebalanceKeepsValidity) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  auto rebalanced = RebalanceReads(cls, alloc.value(), backends);
  ASSERT_TRUE(rebalanced.ok()) << rebalanced.status().ToString();
  Status valid = ValidateAllocation(cls, rebalanced.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  // The LP never yields a worse scale than the heuristic's distribution.
  EXPECT_LE(Scale(rebalanced.value(), backends),
            Scale(alloc.value(), backends) + 1e-9);
}

TEST(RobustnessTest, RejectsBadIndexAndWeight) {
  const Classification cls = testutil::Figure2Classification();
  const Allocation a = Figure2FourBackends(cls);
  const auto backends = HomogeneousBackends(4);
  EXPECT_FALSE(PerturbedSpeedup(cls, a, backends, 99, 0.3, false).ok());
  EXPECT_FALSE(PerturbedSpeedup(cls, a, backends, 0, -0.1, false).ok());
  EXPECT_FALSE(WeightTolerance(cls, a, backends, 99).ok());
}

/// Headroom added to greedy allocations, pinned bit for bit with the
/// running aggregates: each added replica places a read class's data and
/// closes the backend's update pins, and the order of those pins sets the
/// update-load and byte sums.
TEST(RobustnessTest, HeadroomGoldenAggregates) {
  struct Case {
    testutil::GoldenCase g;
    bool zero_weights;
  };
  const Case cases[] = {
      {{40, 3, 0.6, 1, 0, 0x515c2db90ada204dULL}, false},
      {{40, 3, 0.6, 3, 0, 0xddc0abfa85bc7061ULL}, true},
  };
  for (const Case& c : cases) {
    Classification cls = testutil::GoldenInstance(c.g);
    if (c.zero_weights) cls = testutil::WithZeroWeightUpdates(std::move(cls));
    const auto backends = HomogeneousBackends(c.g.backends);
    auto greedy = GreedyAllocator().Allocate(cls, backends);
    ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
    RobustnessOptions options;
    options.required_headroom = 0.2;
    auto robust = AddRobustnessHeadroom(cls, greedy.value(), backends, options);
    ASSERT_TRUE(robust.ok()) << robust.status().ToString();
    EXPECT_GT(DegreeOfReplication(robust.value(), cls.catalog),
              DegreeOfReplication(greedy.value(), cls.catalog));
    const Status valid = ValidateAllocation(cls, robust.value(), backends);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(testutil::AggregateDigest(robust.value()), c.g.aggregate)
        << std::hex << "aggregate 0x"
        << testutil::AggregateDigest(robust.value()) << std::dec << " for "
        << c.g.fragments << " fragments, zipf " << c.g.zipf << ", seed "
        << c.g.seed;
  }
}

TEST(RobustnessTest, HeadroomRejectsARowHoldingUpdatedDataWithoutThePin) {
  // Each added replica's update closure builds on closed rows, so input
  // that breaks Eq. 10 is refused rather than padded. Backend 0 holds A,
  // which U1 updates, but U1 is not pinned there.
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(2);
  Allocation a(2, cls.catalog.size(), cls.reads.size(), cls.updates.size());
  for (size_t b = 0; b < 2; ++b) {
    a.PlaceSet(b, {0, 1, 2});
    for (size_t u = 0; u < cls.updates.size(); ++u) {
      a.set_update_assign(b, u, cls.updates[u].weight);
    }
  }
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    a.set_read_assign(0, r, cls.reads[r].weight);
  }
  ASSERT_TRUE(ValidateAllocation(cls, a, backends).ok());
  ASSERT_TRUE(AddRobustnessHeadroom(cls, a, backends).ok());
  a.set_update_assign(0, 0, 0.0);
  const auto padded = AddRobustnessHeadroom(cls, a, backends);
  ASSERT_FALSE(padded.ok());
  EXPECT_TRUE(padded.status().IsInvalidArgument())
      << padded.status().ToString();
}

class RobustnessPropertySweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RobustnessPropertySweep, ToleranceIsHonest) {
  // For random workloads: perturbing a class by its reported tolerance must
  // not degrade the (rebalanced) speedup; perturbing well beyond must not
  // improve it.
  const auto workload = workloads::MakeRandomWorkload(GetParam());
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  const auto backends = HomogeneousBackends(4);
  GreedyAllocator greedy;
  auto alloc = greedy.Allocate(cls.value(), backends);
  ASSERT_TRUE(alloc.ok());
  const double base = Speedup(alloc.value(), backends);
  for (size_t r = 0; r < std::min<size_t>(3, cls->reads.size()); ++r) {
    auto tolerance = WeightTolerance(cls.value(), alloc.value(), backends, r);
    ASSERT_TRUE(tolerance.ok());
    ASSERT_GE(tolerance.value(), -1e-9);
    const double within = cls->reads[r].weight + tolerance.value();
    auto ok_speedup =
        PerturbedSpeedup(cls.value(), alloc.value(), backends, r, within, true);
    ASSERT_TRUE(ok_speedup.ok());
    EXPECT_GE(ok_speedup.value() + 1e-6, base);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RobustnessPropertySweep,
                         ::testing::Range<uint64_t>(1, 7));

}  // namespace
}  // namespace qcap

#include "alloc/greedy.h"

#include <gtest/gtest.h>

#include "model/metrics.h"
#include "model/validation.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/journal_synth.h"

namespace qcap {
namespace {

TEST(GreedyTest, SingleBackendGetsEverything) {
  const Classification cls = testutil::AppendixAClassification();
  GreedyAllocator greedy;
  auto result = greedy.Allocate(cls, HomogeneousBackends(1));
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  EXPECT_TRUE(ValidateAllocation(cls, a, HomogeneousBackends(1)).ok());
  EXPECT_EQ(a.BackendFragments(0), (FragmentSet{0, 1, 2}));
  EXPECT_NEAR(a.AssignedLoad(0), 1.0, 1e-9);
}

TEST(GreedyTest, Figure2TwoBackendsOptimal) {
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(2);
  auto result = greedy.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  EXPECT_TRUE(ValidateAllocation(cls, a, backends).ok())
      << ValidateAllocation(cls, a, backends).ToString();
  // Perfect speedup of 2 with only one replicated relation (r = 4/3).
  EXPECT_NEAR(Speedup(a, backends), 2.0, 1e-9);
  EXPECT_NEAR(DegreeOfReplication(a, cls.catalog), 4.0 / 3.0, 1e-9);
}

TEST(GreedyTest, Figure2FourBackendsPerfectSpeedup) {
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(4);
  auto result = greedy.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  EXPECT_TRUE(ValidateAllocation(cls, a, backends).ok());
  EXPECT_NEAR(Speedup(a, backends), 4.0, 1e-9);
  // The paper's 4-backend solution replicates only two tables: r = 5/3.
  EXPECT_LE(DegreeOfReplication(a, cls.catalog), 5.0 / 3.0 + 1e-9);
}

TEST(GreedyTest, AppendixAHeterogeneousTrace) {
  // The worked example: final allocation matrix
  //   B1={A,B}, B2={B,C}, B3={A}, B4={C}
  // with loads 37.2 / 37.2 / 20.8 / 24.8 and scale 1.24.
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  GreedyAllocator greedy;
  auto result = greedy.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  EXPECT_TRUE(ValidateAllocation(cls, a, backends).ok())
      << ValidateAllocation(cls, a, backends).ToString();

  EXPECT_EQ(a.BackendFragments(0), (FragmentSet{0, 1}));  // B1 = {A,B}.
  EXPECT_EQ(a.BackendFragments(1), (FragmentSet{1, 2}));  // B2 = {B,C}.
  EXPECT_EQ(a.BackendFragments(2), (FragmentSet{0}));     // B3 = {A}.
  EXPECT_EQ(a.BackendFragments(3), (FragmentSet{2}));     // B4 = {C}.

  // Load matrix row sums from the appendix.
  EXPECT_NEAR(a.AssignedLoad(0), 0.372, 1e-9);
  EXPECT_NEAR(a.AssignedLoad(1), 0.372, 1e-9);
  EXPECT_NEAR(a.AssignedLoad(2), 0.208, 1e-9);
  EXPECT_NEAR(a.AssignedLoad(3), 0.248, 1e-9);

  // Individual entries: Q4 fully on B1; U2 on B1 and B2; Q1 split
  // 7.2%/16.8% over B1/B3; Q3 split 1.2%/18.8% over B2/B4.
  EXPECT_NEAR(a.read_assign(0, 3), 0.16, 1e-9);
  EXPECT_NEAR(a.update_assign(0, 1), 0.10, 1e-9);
  EXPECT_NEAR(a.update_assign(1, 1), 0.10, 1e-9);
  EXPECT_NEAR(a.read_assign(0, 0), 0.072, 1e-9);
  EXPECT_NEAR(a.read_assign(2, 0), 0.168, 1e-9);
  EXPECT_NEAR(a.read_assign(1, 2), 0.012, 1e-9);
  EXPECT_NEAR(a.read_assign(3, 2), 0.188, 1e-9);

  EXPECT_NEAR(Scale(a, backends), 1.24, 1e-9);
}

TEST(GreedyTest, UpdateOnlyClassAllocatedOnce) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.8, 1.0, false, "Q1", {}}};
  cls.updates = {QueryClass{{1}, 0.2, 1.0, true, "U1", {}}};  // No read on B.
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(3);
  auto result = greedy.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
  // The pure-update class lands on exactly one backend.
  size_t replicas = 0;
  for (size_t b = 0; b < 3; ++b) {
    if (result->update_assign(b, 0) > 0.0) ++replicas;
  }
  EXPECT_EQ(replicas, 1u);
}

TEST(GreedyTest, OrphanFragmentsArePlaced) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("unused", "U", FragmentKind::kTable, 5.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 1.0, false, "Q1", {}}};
  GreedyAllocator greedy;
  auto result = greedy.Allocate(cls, HomogeneousBackends(2));
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->ReplicaCount(1), 1u);
  EXPECT_TRUE(
      ValidateAllocation(cls, result.value(), HomogeneousBackends(2)).ok());
}

TEST(GreedyTest, HeavyClassSpreadsAcrossBackends) {
  // One class with 100% weight must be replicated to use the cluster.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 1.0, false, "Q1", {}}};
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(4);
  auto result = greedy.Allocate(cls, backends);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
  EXPECT_NEAR(Speedup(result.value(), backends), 4.0, 1e-6);
  EXPECT_EQ(result->ReplicaCount(0), 4u);
}

TEST(GreedyTest, RejectsInvalidInput) {
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  EXPECT_FALSE(greedy.Allocate(cls, {}).ok());
  Classification bad = cls;
  bad.reads[0].weight = 2.0;
  EXPECT_FALSE(greedy.Allocate(bad, HomogeneousBackends(2)).ok());
}

TEST(GreedyTest, ReadOnlySpeedupAlwaysPerfect) {
  // Read-only workloads reach |B| speedup for any class structure, since
  // classes can be split freely (Section 3.2.1).
  const Classification cls = testutil::Figure2Classification();
  GreedyAllocator greedy;
  for (size_t n = 1; n <= 8; ++n) {
    const auto backends = HomogeneousBackends(n);
    auto result = greedy.Allocate(cls, backends);
    ASSERT_TRUE(result.ok()) << "n=" << n;
    EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok())
        << "n=" << n;
    EXPECT_NEAR(Speedup(result.value(), backends), static_cast<double>(n),
                1e-6)
        << "n=" << n;
  }
}

TEST(GreedyTest, SpeedupRespectsTheoreticalBound) {
  const Classification cls = testutil::AppendixAClassification();
  GreedyAllocator greedy;
  const double bound = TheoreticalMaxSpeedup(cls);
  for (size_t n = 1; n <= 8; ++n) {
    const auto backends = HomogeneousBackends(n);
    auto result = greedy.Allocate(cls, backends);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(Speedup(result.value(), backends), bound + 1e-6);
  }
}

TEST(GreedyTest, EqualRemainingKeysKeepFifoOrder) {
  // X and Y are both split on their first placement and requeued with the
  // same remaining key (0.125 x 1). X was requeued first, so X is placed
  // next, on B3, and Y goes to the still-empty B4; Z then splits over both.
  // Popping Y first would swap A and B between B3 and B4.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 0.1).ok());
  cls.reads = {
      QueryClass{{0}, 0.375, 1.0, false, "X", {}},
      QueryClass{{1}, 0.375, 1.0, false, "Y", {}},
      QueryClass{{2}, 0.25, 1.0, false, "Z", {}},
  };
  const auto backends = HomogeneousBackends(4);
  auto result = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Allocation& a = result.value();
  EXPECT_TRUE(ValidateAllocation(cls, a, backends).ok());
  EXPECT_EQ(a.BackendFragments(0), (FragmentSet{0}));
  EXPECT_EQ(a.BackendFragments(1), (FragmentSet{1}));
  EXPECT_EQ(a.BackendFragments(2), (FragmentSet{0, 2}));
  EXPECT_EQ(a.BackendFragments(3), (FragmentSet{1, 2}));
  EXPECT_EQ(a.read_assign(2, 0), 0.125);
  EXPECT_EQ(a.read_assign(3, 1), 0.125);
}

/// Allocations of seeded synthetic instances, pinned bit for bit: any
/// change to the placement order or the float arithmetic shows up here.
TEST(GreedyTest, GoldenDigests) {
  const testutil::GoldenCase cases[] = {
      {120, 8, 0.6, 1, 0x733b551a268c8f64ULL},
      {120, 8, 0.6, 2, 0x7f4d2ac1889b7e6aULL},
      {120, 8, 1.1, 1, 0xf7e2f7e9ad2f2a55ULL},
      {120, 8, 1.1, 2, 0x999ad81495a8b3b7ULL},
      {700, 16, 0.6, 1, 0x2d29762ee91b13a3ULL},
      {700, 16, 0.6, 2, 0x945b60ded25048baULL},
      {700, 16, 1.1, 1, 0x905a2d9f3e6afbd0ULL},
      {700, 16, 1.1, 2, 0xbe74f8aa4ebbd0f2ULL},
  };
  for (const testutil::GoldenCase& g : cases) {
    const Classification cls = testutil::GoldenInstance(g);
    const auto backends = HomogeneousBackends(g.backends);
    auto result = GreedyAllocator().Allocate(cls, backends);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
    EXPECT_EQ(testutil::AllocationDigest(result.value()), g.digest)
        << std::hex << "0x" << testutil::AllocationDigest(result.value())
        << std::dec << " for " << g.fragments << " fragments, zipf " << g.zipf
        << ", seed " << g.seed;
  }
}

/// Property sweep: random workloads at several cluster sizes always yield
/// valid allocations.
class GreedyPropertySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, size_t>> {};

TEST_P(GreedyPropertySweep, ProducesValidAllocations) {
  const auto [seed, n] = GetParam();
  const auto workload = workloads::MakeRandomWorkload(seed);
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok()) << cls.status().ToString();
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(n);
  auto result = greedy.Allocate(cls.value(), backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  Status valid = ValidateAllocation(cls.value(), result.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
  EXPECT_GE(Scale(result.value(), backends), 1.0 - 1e-12);
  EXPECT_LE(DegreeOfReplication(result.value(), cls->catalog),
            static_cast<double>(n) + 1e-9);
}

INSTANTIATE_TEST_SUITE_P(
    Random, GreedyPropertySweep,
    ::testing::Combine(::testing::Range<uint64_t>(1, 11),
                       ::testing::Values<size_t>(1, 2, 3, 5, 8)));

}  // namespace
}  // namespace qcap

#include "alloc/ksafety.h"

#include <gtest/gtest.h>

#include "model/metrics.h"
#include "model/validation.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/journal_synth.h"

namespace qcap {
namespace {

TEST(KSafetyTest, KZeroBehavesLikeValidGreedy) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = testutil::AppendixABackends();
  KSafeGreedyAllocator alloc({0, 1e-12, 0});
  auto result = alloc.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
}

TEST(KSafetyTest, KOneEveryClassOnTwoBackends) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(4);
  KSafeGreedyAllocator alloc({1, 1e-12, 0});
  auto result = alloc.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ValidationOptions opts;
  opts.k_safety = 1;
  Status valid = ValidateAllocation(cls, result.value(), backends, opts);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(KSafetyTest, KTwoFragmentsTriplicated) {
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(5);
  KSafeGreedyAllocator alloc({2, 1e-12, 0});
  auto result = alloc.Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  for (FragmentId f = 0; f < cls.catalog.size(); ++f) {
    EXPECT_GE(result->ReplicaCount(f), 3u) << "fragment " << f;
  }
  ValidationOptions opts;
  opts.k_safety = 2;
  EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends, opts).ok());
}

TEST(KSafetyTest, ReadOnlySpeedupUnaffectedByReplicas) {
  // Appendix C: in the read-only case the theoretical speedup is unaffected
  // by k-safety.
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(4);
  KSafeGreedyAllocator alloc({1, 1e-12, 0});
  auto result = alloc.Allocate(cls, backends);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(Speedup(result.value(), backends), 4.0, 1e-6);
}

TEST(KSafetyTest, UpdateReplicationReducesSpeedup) {
  // With updates, k=1 forces replicated update classes, so the model
  // speedup degrades relative to k=0.
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(4);
  KSafeGreedyAllocator k0({0, 1e-12, 0});
  KSafeGreedyAllocator k1({1, 1e-12, 0});
  auto r0 = k0.Allocate(cls, backends);
  auto r1 = k1.Allocate(cls, backends);
  ASSERT_TRUE(r0.ok());
  ASSERT_TRUE(r1.ok());
  EXPECT_LE(Speedup(r1.value(), backends),
            Speedup(r0.value(), backends) + 1e-9);
}

TEST(KSafetyTest, RejectsImpossibleK) {
  const Classification cls = testutil::Figure2Classification();
  KSafeGreedyAllocator alloc({2, 1e-12, 0});
  EXPECT_FALSE(alloc.Allocate(cls, HomogeneousBackends(2)).ok());
  KSafeGreedyAllocator neg({-1, 1e-12, 0});
  EXPECT_FALSE(neg.Allocate(cls, HomogeneousBackends(2)).ok());
}

TEST(KSafetyTest, NameReflectsK) {
  EXPECT_EQ(KSafeGreedyAllocator({1, 1e-12, 0}).name(), "greedy-k1");
  EXPECT_EQ(KSafeGreedyAllocator({2, 1e-12, 0}).name(), "greedy-k2");
}

class KSafetyPropertySweep
    : public ::testing::TestWithParam<std::tuple<uint64_t, int>> {};

TEST_P(KSafetyPropertySweep, RandomWorkloadsStayKSafe) {
  const auto [seed, k] = GetParam();
  const auto workload = workloads::MakeRandomWorkload(seed);
  Classifier classifier(workload.catalog, {Granularity::kTable, 4, true});
  auto cls = classifier.Classify(workload.journal);
  ASSERT_TRUE(cls.ok());
  const size_t n = static_cast<size_t>(k) + 3;
  const auto backends = HomogeneousBackends(n);
  KSafeGreedyAllocator alloc({k, 1e-12, 0});
  auto result = alloc.Allocate(cls.value(), backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ValidationOptions opts;
  opts.k_safety = k;
  Status valid = ValidateAllocation(cls.value(), result.value(), backends, opts);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

INSTANTIATE_TEST_SUITE_P(Random, KSafetyPropertySweep,
                         ::testing::Combine(::testing::Range<uint64_t>(1, 7),
                                            ::testing::Values(1, 2)));

/// K-safe allocations of seeded synthetic instances, pinned bit for bit.
TEST(KSafetyTest, GoldenDigests) {
  struct KCase {
    testutil::GoldenCase g;
    int k;
  };
  const KCase cases[] = {
      {{120, 8, 0.6, 1, 0x9304fd2534d0c836ULL}, 1},
      {{120, 8, 0.6, 1, 0x54ad8166be21b02cULL}, 2},
      {{120, 8, 0.6, 2, 0x5739991290c32832ULL}, 1},
      {{120, 8, 0.6, 2, 0x3aa59f386c8d476cULL}, 2},
      {{120, 8, 1.1, 1, 0x281841a3e115fd91ULL}, 1},
      {{120, 8, 1.1, 1, 0xe494a5a44dae0627ULL}, 2},
      {{120, 8, 1.1, 2, 0x75d3debe96163104ULL}, 1},
      {{120, 8, 1.1, 2, 0x289c6f880f3904e3ULL}, 2},
      {{700, 16, 0.6, 1, 0xafca68ee25468de9ULL}, 1},
      {{700, 16, 0.6, 1, 0x6ba41eee37a68494ULL}, 2},
      {{700, 16, 0.6, 2, 0x7ffeb07c0435c558ULL}, 1},
      {{700, 16, 0.6, 2, 0x8484c36fa40cc3cbULL}, 2},
      {{700, 16, 1.1, 1, 0xeea94e525ab5a6a3ULL}, 1},
      {{700, 16, 1.1, 1, 0x612d6d7864dba0a2ULL}, 2},
      {{700, 16, 1.1, 2, 0x10ab3cbbe3422cc6ULL}, 1},
      {{700, 16, 1.1, 2, 0x06f49acc9cdc24c5ULL}, 2},
  };
  for (const KCase& c : cases) {
    const Classification cls = testutil::GoldenInstance(c.g);
    const auto backends = HomogeneousBackends(c.g.backends);
    auto result =
        KSafeGreedyAllocator({c.k, 1e-12, 0}).Allocate(cls, backends);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ValidationOptions opts;
    opts.k_safety = c.k;
    EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends, opts).ok());
    EXPECT_EQ(testutil::AllocationDigest(result.value()), c.g.digest)
        << std::hex << "0x" << testutil::AllocationDigest(result.value())
        << std::dec << " for " << c.g.fragments << " fragments, zipf "
        << c.g.zipf << ", seed " << c.g.seed << ", k " << c.k;
  }
}

}  // namespace
}  // namespace qcap

#include "alloc/random_allocator.h"

#include <gtest/gtest.h>

#include "model/metrics.h"
#include "model/validation.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

TEST(RandomAllocatorTest, ValidAndDeterministicPerSeed) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(4);
  RandomAllocator a(77), b(77);
  auto ra = a.Allocate(cls, backends);
  auto rb = b.Allocate(cls, backends);
  ASSERT_TRUE(ra.ok()) << ra.status().ToString();
  ASSERT_TRUE(rb.ok());
  EXPECT_TRUE(ValidateAllocation(cls, ra.value(), backends).ok());
  for (size_t backend = 0; backend < 4; ++backend) {
    EXPECT_EQ(ra->BackendFragments(backend), rb->BackendFragments(backend));
  }
}

TEST(RandomAllocatorTest, ZeroWeightUpdateClassTerminates) {
  const Classification cls = testutil::ZeroWeightUpdateClassification();
  const auto backends = HomogeneousBackends(2);
  auto result = RandomAllocator(7).Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Status valid = ValidateAllocation(cls, result.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

TEST(RandomAllocatorTest, DifferentSeedsUsuallyDiffer) {
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  auto cls = classifier.Classify(workloads::TpchJournal(1900));
  ASSERT_TRUE(cls.ok());
  const auto backends = HomogeneousBackends(6);
  RandomAllocator a(1), b(2);
  auto ra = a.Allocate(cls.value(), backends);
  auto rb = b.Allocate(cls.value(), backends);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  bool any_difference = false;
  for (size_t backend = 0; backend < 6 && !any_difference; ++backend) {
    any_difference =
        ra->BackendFragments(backend) != rb->BackendFragments(backend);
  }
  EXPECT_TRUE(any_difference);
}

TEST(RandomAllocatorTest, EachReadClassLandsWhole) {
  const Classification cls = testutil::Figure2Classification();
  const auto backends = HomogeneousBackends(5);
  RandomAllocator random(3);
  auto alloc = random.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  // The random baseline assigns each read class entirely to one backend.
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    size_t holders = 0;
    for (size_t b = 0; b < 5; ++b) {
      if (alloc->read_assign(b, r) > 0.0) {
        ++holders;
        EXPECT_DOUBLE_EQ(alloc->read_assign(b, r), cls.reads[r].weight);
      }
    }
    EXPECT_EQ(holders, 1u) << cls.reads[r].label;
  }
}

TEST(RandomAllocatorTest, TypicallyUnbalanced) {
  // Averaged over seeds, the random placement leaves a clearly worse scale
  // than balanced (the Figure 4a "random allocation" behaviour).
  const engine::Catalog catalog = workloads::TpchCatalog(1.0);
  Classifier classifier(catalog, {Granularity::kColumn, 4, true});
  auto cls = classifier.Classify(workloads::TpchJournal(1900));
  ASSERT_TRUE(cls.ok());
  const auto backends = HomogeneousBackends(8);
  double worst_scale = 0.0;
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RandomAllocator random(seed);
    auto alloc = random.Allocate(cls.value(), backends);
    ASSERT_TRUE(alloc.ok());
    EXPECT_TRUE(ValidateAllocation(cls.value(), alloc.value(), backends).ok());
    worst_scale = std::max(worst_scale, Scale(alloc.value(), backends));
  }
  EXPECT_GT(worst_scale, 1.5);
}

TEST(RandomAllocatorTest, PureUpdateClassesGetAHome) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.7, 1.0, false, "Q1", {}}};
  cls.updates = {QueryClass{{1}, 0.3, 1.0, true, "U1", {}}};
  const auto backends = HomogeneousBackends(3);
  RandomAllocator random(11);
  auto alloc = random.Allocate(cls, backends);
  ASSERT_TRUE(alloc.ok());
  EXPECT_TRUE(ValidateAllocation(cls, alloc.value(), backends).ok());
  EXPECT_GE(alloc->ReplicaCount(1), 1u);
}

/// Allocations pinned bit for bit, running aggregates included: the
/// advise-synth instances (700 fragments, 16 backends, zipf 0.6, the
/// harness's first instance of seeds 1 and 2, each allocated with its
/// instance seed) and a small shape with zero-weight update classes,
/// fragments nothing references and update classes no read overlaps.
TEST(RandomAllocatorTest, GoldenAggregates) {
  struct Case {
    testutil::GoldenCase g;
    bool zero_weights;
  };
  const Case cases[] = {
      {{700, 16, 0.6, 1000003, 0, 0x5f503caa73bd96c0ULL}, false},
      {{700, 16, 0.6, 2000006, 0, 0x9d07cdb9bceadb21ULL}, false},
      {{60, 5, 1.1, 1, 0, 0xe2a79272926e4d50ULL}, true},
      {{60, 5, 1.1, 2, 0, 0x96111ceaa13bfc72ULL}, true},
  };
  for (const Case& c : cases) {
    Classification cls = testutil::GoldenInstance(c.g);
    if (c.zero_weights) {
      cls = testutil::WithUnreadData(
          testutil::WithZeroWeightUpdates(std::move(cls)));
      size_t unreferenced = 0, unread_updates = 0;
      for (FragmentId f = 0; f < cls.catalog.size(); ++f) {
        bool referenced = false;
        for (const auto* classes : {&cls.reads, &cls.updates}) {
          for (const QueryClass& q : *classes) {
            referenced = referenced || Contains(q.fragments, f);
          }
        }
        if (!referenced) ++unreferenced;
      }
      for (const QueryClass& u : cls.updates) {
        bool read = false;
        for (const QueryClass& r : cls.reads) {
          read = read || Intersects(r.fragments, u.fragments);
        }
        if (!read) ++unread_updates;
      }
      EXPECT_GT(unreferenced, 0u);
      EXPECT_GT(unread_updates, 0u);
    }
    const auto backends = HomogeneousBackends(c.g.backends);
    auto result = RandomAllocator(c.g.seed).Allocate(cls, backends);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_TRUE(ValidateAllocation(cls, result.value(), backends).ok());
    EXPECT_EQ(testutil::AggregateDigest(result.value()), c.g.aggregate)
        << std::hex << "aggregate 0x"
        << testutil::AggregateDigest(result.value()) << std::dec << " for "
        << c.g.fragments << " fragments, seed " << c.g.seed;
  }
}

TEST(RandomAllocatorTest, RejectsInvalidInput) {
  const Classification cls = testutil::Figure2Classification();
  RandomAllocator random(5);
  EXPECT_FALSE(random.Allocate(cls, {}).ok());
}

}  // namespace
}  // namespace qcap

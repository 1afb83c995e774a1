#include "autonomic/segmentation.h"

#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "cluster/scheduler.h"
#include "common/random.h"
#include "model/validation.h"
#include "test_util.h"
#include "workloads/trace.h"

namespace qcap {
namespace {

constexpr double kHour = 3600.0;

/// A synthetic two-phase day: query X dominates before noon, query Y after.
QueryJournal TwoPhaseJournal() {
  QueryJournal journal;
  const Query x = Query::Read("x", {"users"}, 0.01);
  const Query y = Query::Read("y", {"courses"}, 0.01);
  for (int h = 0; h < 12; ++h) {
    for (int i = 0; i < 90; ++i) journal.RecordAt(x, h * kHour + i * 40.0);
    for (int i = 0; i < 10; ++i)
      journal.RecordAt(y, h * kHour + i * 360.0 + 1.0);
  }
  for (int h = 12; h < 24; ++h) {
    for (int i = 0; i < 10; ++i)
      journal.RecordAt(x, h * kHour + i * 360.0 + 2.0);
    for (int i = 0; i < 90; ++i) journal.RecordAt(y, h * kHour + i * 40.0);
  }
  return journal;
}

TEST(SegmentationTest, WindowMixesShapes) {
  const QueryJournal journal = TwoPhaseJournal();
  auto mixes = WindowMixes(journal, kHour);
  ASSERT_TRUE(mixes.ok()) << mixes.status().ToString();
  ASSERT_GE(mixes->size(), 23u);
  // Early windows dominated by x (index 0), late by y (index 1).
  EXPECT_GT((*mixes)[2][0], 0.8);
  EXPECT_GT((*mixes)[20][1], 0.8);
}

TEST(SegmentationTest, TwoPhaseDayYieldsTwoSegments) {
  const QueryJournal journal = TwoPhaseJournal();
  auto segments = SegmentJournal(journal);
  ASSERT_TRUE(segments.ok()) << segments.status().ToString();
  EXPECT_EQ(segments->size(), 2u);
  EXPECT_NEAR((*segments)[0].end_seconds, 12.0 * kHour, kHour + 1.0);
}

TEST(SegmentationTest, StableMixOneSegment) {
  QueryJournal journal;
  const Query x = Query::Read("x", {"users"}, 0.01);
  for (int h = 0; h < 24; ++h) {
    for (int i = 0; i < 50; ++i) journal.RecordAt(x, h * kHour + i * 70.0);
  }
  auto segments = SegmentJournal(journal);
  ASSERT_TRUE(segments.ok());
  EXPECT_EQ(segments->size(), 1u);
}

TEST(SegmentationTest, DiurnalTraceFindsFewSegments) {
  // The paper's example day decomposes into ~4 segments.
  const QueryJournal journal = workloads::TraceJournal(30000, 7);
  auto segments = SegmentJournal(journal);
  ASSERT_TRUE(segments.ok());
  EXPECT_GE(segments->size(), 2u);
  EXPECT_LE(segments->size(), 6u);
}

TEST(SegmentationTest, RequiresTimestamps) {
  QueryJournal journal;
  journal.Record(Query::Read("x", {"users"}), 100);
  EXPECT_FALSE(SegmentJournal(journal).ok());
  EXPECT_FALSE(WindowMixes(journal, kHour).ok());
}

TEST(SegmentationTest, SegmentedAllocationServesEverySegment) {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(30000, 7);
  auto segments = SegmentJournal(journal);
  ASSERT_TRUE(segments.ok());
  GreedyAllocator greedy;
  const auto backends = HomogeneousBackends(3);
  const ClassifierOptions options{Granularity::kTable, 4, true};
  auto merged = SegmentedAllocation(journal, segments.value(), catalog,
                                    options, &greedy, backends);
  ASSERT_TRUE(merged.ok()) << merged.status().ToString();

  // Every segment's classification must be schedulable on the merged
  // placement without reallocation.
  Classifier classifier(catalog, options);
  for (const Segment& seg : segments.value()) {
    const QueryJournal slice = journal.Slice(seg.begin_seconds, seg.end_seconds);
    if (slice.empty()) continue;
    auto cls = classifier.Classify(slice);
    ASSERT_TRUE(cls.ok());
    auto reshaped = PlacementForClassification(merged.value(), cls.value());
    ASSERT_TRUE(reshaped.ok()) << reshaped.status().ToString();
    auto sched = Scheduler::Build(cls.value(), reshaped.value());
    EXPECT_TRUE(sched.ok()) << sched.status().ToString();
  }
}

TEST(SegmentationTest, PlacementReshapeSpreadsReads) {
  const engine::Catalog catalog = workloads::TraceCatalog();
  const QueryJournal journal = workloads::TraceJournal(10000, 3);
  const ClassifierOptions options{Granularity::kTable, 4, true};
  Classifier classifier(catalog, options);
  auto cls = classifier.Classify(journal);
  ASSERT_TRUE(cls.ok());
  // Full placement: every backend holds everything.
  Allocation full(2, cls->catalog.size(), cls->reads.size(),
                  cls->updates.size());
  for (size_t b = 0; b < 2; ++b) {
    for (FragmentId f = 0; f < cls->catalog.size(); ++f) full.Place(b, f);
  }
  auto reshaped = PlacementForClassification(full, cls.value());
  ASSERT_TRUE(reshaped.ok());
  for (size_t r = 0; r < cls->reads.size(); ++r) {
    EXPECT_NEAR(reshaped->TotalReadAssign(r), cls->reads[r].weight, 1e-9);
    EXPECT_NEAR(reshaped->read_assign(0, r), reshaped->read_assign(1, r),
                1e-9);
  }
}

/// Each read class's fragments on one random backend, and nothing else:
/// no update closure, and fragments no read references are left out.
Allocation ReadsOnlyPlacement(const Classification& cls, size_t backends,
                              uint64_t seed) {
  Allocation a(backends, cls.catalog.size(), cls.reads.size(),
               cls.updates.size());
  Rng rng(seed);
  for (const QueryClass& r : cls.reads) {
    a.PlaceSet(static_cast<size_t>(rng.NextBounded(backends)), r.fragments);
  }
  return a;
}

/// Reshaped placements pinned bit for bit, running aggregates included.
/// The placements lack every update closure and every fragment no read
/// references, so the reshape pins update classes and places orphans,
/// some of them updated (and one with a zero-weight update class).
TEST(SegmentationTest, PlacementGoldenAggregates) {
  struct Case {
    testutil::GoldenCase g;
    bool zero_weights;
  };
  const Case cases[] = {
      {{120, 6, 1.1, 1, 0, 0x58452118e6d2eb03ULL}, false},
      {{120, 6, 1.1, 2, 0, 0x5dffc5bb1a25c8a1ULL}, true},
      {{700, 16, 0.6, 1000003, 0, 0xeadfba61a7842412ULL}, false},
  };
  for (const Case& c : cases) {
    Classification cls = testutil::GoldenInstance(c.g);
    if (c.zero_weights) {
      cls = testutil::WithUnreadData(
          testutil::WithZeroWeightUpdates(std::move(cls)));
    }
    const Allocation placement =
        ReadsOnlyPlacement(cls, c.g.backends, c.g.seed);
    auto reshaped = PlacementForClassification(placement, cls);
    ASSERT_TRUE(reshaped.ok()) << reshaped.status().ToString();
    const auto backends = HomogeneousBackends(c.g.backends);
    const Status valid = ValidateAllocation(cls, reshaped.value(), backends);
    EXPECT_TRUE(valid.ok()) << valid.ToString();
    EXPECT_EQ(testutil::AggregateDigest(reshaped.value()), c.g.aggregate)
        << std::hex << "aggregate 0x"
        << testutil::AggregateDigest(reshaped.value()) << std::dec << " for "
        << c.g.fragments << " fragments, seed " << c.g.seed;
  }
}

}  // namespace
}  // namespace qcap

#include "alloc/greedy.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstring>
#include <vector>

#include "alloc_reference.h"
#include "common/random.h"

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

TEST(GreedyTest, ZeroWeightUpdateClassTerminates) {
  // Validate accepts weight 0. The closure used to treat an update class as
  // pinned only when its assignment was positive, so it never settled.
  const Classification cls = testutil::ZeroWeightUpdateClassification();
  const auto backends = HomogeneousBackends(2);
  auto result = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const Status valid = ValidateAllocation(cls, result.value(), backends);
  EXPECT_TRUE(valid.ok()) << valid.ToString();
}

/// Allocations of seeded synthetic instances, pinned bit for bit: any
/// change to the placement order or the float arithmetic shows up here.
TEST(GreedyTest, GoldenDigests) {
  const testutil::GoldenCase cases[] = {
      {120, 8, 0.6, 1, 0x733b551a268c8f64ULL, 0xb69e989bee697064ULL},
      {120, 8, 0.6, 2, 0x7f4d2ac1889b7e6aULL, 0x9c716dd60ea02569ULL},
      {120, 8, 1.1, 1, 0xf7e2f7e9ad2f2a55ULL, 0x90f91b8a42a99d34ULL},
      {120, 8, 1.1, 2, 0x999ad81495a8b3b7ULL, 0x49f11b0232a8fc5aULL},
      {700, 16, 0.6, 1, 0x2d29762ee91b13a3ULL, 0x48c8f0ab302d2c03ULL},
      {700, 16, 0.6, 2, 0x945b60ded25048baULL, 0x43e8a429e21aa240ULL},
      {700, 16, 1.1, 1, 0x905a2d9f3e6afbd0ULL, 0xfede05ffededef13ULL},
      {700, 16, 1.1, 2, 0xbe74f8aa4ebbd0f2ULL, 0x37ea6ab4ba1aee36ULL},
      {1000, 16, 0.6, 1, 0x71e160cb4951c5fdULL, 0xf778dc2cf33c4f17ULL},
      {1000, 16, 1.1, 1, 0x18bb1a4efb08a109ULL, 0xa777dad8173129a0ULL},
      // 70 backends: per-backend flags span more than one 64-bit word.
      {700, 70, 0.6, 1, 0x400787f86ef5e87aULL, 0x1b7a0ad71cc3c428ULL},
      {700, 70, 1.1, 1, 0x38b57abb28ac2a8eULL, 0x562e701dd0307405ULL},
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
    EXPECT_EQ(testutil::AggregateDigest(result.value()), g.aggregate)
        << std::hex << "aggregate 0x"
        << testutil::AggregateDigest(result.value()) << std::dec << " for "
        << g.fragments << " fragments, " << g.backends << " backends, zipf "
        << g.zipf << ", seed " << g.seed;
  }
}

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

/// Rows, pins, replica counts and stored bytes, compared bit for bit.
void ExpectSameRows(const Allocation& got, const Allocation& want,
                    const FragmentCatalog& catalog) {
  for (size_t b = 0; b < want.num_backends(); ++b) {
    const ConstBitSpan g = got.RowBits(b), w = want.RowBits(b);
    EXPECT_EQ(std::memcmp(g.words(), w.words(),
                          w.num_words() * sizeof(uint64_t)),
              0)
        << "row " << b;
    EXPECT_EQ(Bits(got.BackendBytes(b, catalog)),
              Bits(want.BackendBytes(b, catalog)))
        << "bytes " << b;
    for (size_t u = 0; u < want.num_updates(); ++u) {
      EXPECT_EQ(Bits(got.update_assign(b, u)), Bits(want.update_assign(b, u)))
          << "pin " << b << "," << u;
    }
  }
  for (FragmentId f = 0; f < want.num_fragments(); ++f) {
    EXPECT_EQ(got.ReplicaCount(f), want.ReplicaCount(f)) << "fragment " << f;
  }
}

/// The delta closure against the rescan on random placement sequences
/// over closed rows: class rows, single fragments and scattered fragments,
/// with and without zero-weight update classes.
TEST(UpdateCloserTest, MatchesRescanOnRandomPlacements) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const bool zero_weights : {false, true}) {
      Classification cls = testutil::GoldenInstance({160, 8, 1.1, seed, 0});
      if (zero_weights) {
        for (size_t u = 0; u < cls.updates.size(); u += 3) {
          cls.updates[u].weight = 0.0;
        }
      }
      const ClassificationIndex index(cls);
      const size_t n = 6, frags = cls.catalog.size();
      Allocation delta(n, cls.catalog, cls.reads.size(), cls.updates.size());
      Allocation rescan = delta;
      alloc_internal::UpdateCloser closer(cls);
      Rng rng(seed);
      DenseBitset bits(frags);
      for (int step = 0; step < 400; ++step) {
        const size_t b = rng.NextBounded(n);
        bits.ClearAll();
        switch (rng.NextBounded(3)) {
          case 0:
            bits.UnionWith(index.read_bits(rng.NextBounded(cls.reads.size())));
            break;
          case 1:
            bits.Set(rng.NextBounded(frags));
            break;
          default:
            for (int j = 0; j < 6; ++j) bits.Set(rng.NextBounded(frags));
        }
        const double got = closer.PlaceAndClose(b, bits, &delta);
        rescan.PlaceBits(b, bits);
        const double want = testutil::RescanClose(cls, b, &rescan);
        ASSERT_EQ(Bits(got), Bits(want))
            << "seed " << seed << ", zero weights " << zero_weights
            << ", step " << step;
      }
      ExpectSameRows(delta, rescan, cls.catalog);
    }
  }
}

/// The orphan placer against the reference on closed rows: random read
/// classes placed and closed by the rescan leave most fragments stored
/// nowhere, some of them updated; with and without bound sizes (the byte
/// column's SIMD argmin against the scalar first-minimum scan).
TEST(UpdateCloserTest, PlaceOrphansMatchesReference) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const bool bound : {false, true}) {
      const Classification cls =
          testutil::WithUnreadData(testutil::WithZeroWeightUpdates(
              testutil::GoldenInstance({160, 8, 1.1, seed, 0})));
      const ClassificationIndex index(cls);
      const size_t n = 5;
      Allocation want(n, cls.catalog.size(), cls.reads.size(),
                      cls.updates.size());
      if (bound) want.BindSizes(cls.catalog);
      Rng rng(seed);
      for (int i = 0; i < 40; ++i) {
        const size_t b = rng.NextBounded(n);
        want.PlaceBits(b, index.read_bits(rng.NextBounded(cls.reads.size())));
        testutil::RescanClose(cls, b, &want);
      }
      size_t orphans = 0;
      for (FragmentId f = 0; f < want.num_fragments(); ++f) {
        orphans += want.ReplicaCount(f) == 0 ? 1 : 0;
      }
      ASSERT_GT(orphans, 0u);
      Allocation got = want;
      std::vector<size_t> got_touched = {n - 1}, want_touched = {n - 1};
      alloc_internal::UpdateCloser(cls).PlaceOrphans(&got, &got_touched);
      testutil::ReferencePlaceOrphans(cls, &want, &want_touched);
      EXPECT_EQ(got_touched, want_touched);
      ExpectSameRows(got, want, cls.catalog);
      EXPECT_EQ(testutil::AggregateDigest(got),
                testutil::AggregateDigest(want))
          << "seed " << seed << ", bound " << bound;
    }
  }
}

/// One scoring pass gives MissingBytes and HoldsAllBits for every backend,
/// bit for bit, also with more than 64 backends and a partial last word.
TEST(BundleScoresTest, MatchesPerBackendScans) {
  const Classification cls = testutil::GoldenInstance({150, 70, 0.6, 4, 0});
  const ClassificationIndex index(cls);
  const size_t n = 70, frags = cls.catalog.size();
  Allocation alloc(n, cls.catalog, cls.reads.size(), cls.updates.size());
  Rng rng(9);
  for (size_t b = 0; b < n; ++b) {
    const size_t placed = rng.NextBounded(frags);  // 0 .. most fragments
    for (size_t j = 0; j < placed; ++j) {
      alloc.Place(b, static_cast<FragmentId>(rng.NextBounded(frags)));
    }
  }
  // A few rows that hold a bundle whole.
  for (size_t r = 0; r < 5; ++r) alloc.PlaceBits(r * 11, index.read_bundle_bits(r));
  alloc_internal::BundleScores scores(n);
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    const ConstBitSpan bundle = index.read_bundle_bits(r);
    scores.Score(alloc, bundle);
    for (size_t b = 0; b < n; ++b) {
      ASSERT_EQ(Bits(scores.missing(b)), Bits(alloc.MissingBytes(b, bundle)))
          << "read " << r << ", backend " << b;
      ASSERT_EQ(scores.holds(b), alloc.HoldsAllBits(b, bundle))
          << "read " << r << ", backend " << b;
    }
  }
}

/// The heap pops in the order of a stable sort by descending key, with
/// every later push inserted after the queued keys that are not lower.
TEST(PendingQueueTest, MatchesStableSortAndUpperBoundInsert) {
  struct Item {
    double key;
    int id;
  };
  const auto before = [](const Item& a, const Item& b) { return a.key > b.key; };
  Rng rng(5);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<Item> sorted;
    alloc_internal::PendingQueue<int> queue;
    int next_id = 0;
    const auto random_key = [&] {
      return 0.25 * static_cast<double>(rng.NextBounded(6));  // many ties
    };
    for (int i = 0; i < 50; ++i) {
      const Item item{random_key(), next_id++};
      sorted.push_back(item);
      queue.Push(item.key, item.id);
    }
    std::stable_sort(sorted.begin(), sorted.end(), before);
    size_t head = 0;
    while (head < sorted.size()) {
      ASSERT_FALSE(queue.empty());
      ASSERT_EQ(queue.Pop(), sorted[head].id) << "trial " << trial;
      ++head;
      for (uint64_t j = rng.NextBounded(3); j > 0 && next_id < 400; --j) {
        const Item item{random_key(), next_id++};
        sorted.insert(std::upper_bound(sorted.begin() + static_cast<std::ptrdiff_t>(head),
                                       sorted.end(), item, before),
                      item);
        queue.Push(item.key, item.id);
      }
    }
    EXPECT_TRUE(queue.empty());
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

#include "model/allocation.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <span>
#include <vector>

#include "alloc/greedy.h"
#include "common/random.h"
#include "test_util.h"

namespace qcap {
namespace {

TEST(AllocationTest, EmptyAllocation) {
  Allocation a(2, 3, 4, 1);
  EXPECT_EQ(a.num_backends(), 2u);
  EXPECT_EQ(a.num_fragments(), 3u);
  EXPECT_EQ(a.num_reads(), 4u);
  EXPECT_EQ(a.num_updates(), 1u);
  EXPECT_FALSE(a.IsPlaced(0, 0));
  EXPECT_DOUBLE_EQ(a.AssignedLoad(0), 0.0);
  EXPECT_TRUE(a.BackendFragments(0).empty());
}

TEST(AllocationTest, PlaceIsIdempotent) {
  Allocation a(2, 3, 1, 0);
  a.Place(0, 1);
  a.Place(0, 1);
  EXPECT_TRUE(a.IsPlaced(0, 1));
  EXPECT_EQ(a.BackendFragments(0), (FragmentSet{1}));
  EXPECT_EQ(a.ReplicaCount(1), 1u);
}

TEST(AllocationTest, PlaceSetAndHoldsAll) {
  Allocation a(2, 4, 1, 0);
  a.PlaceSet(1, {0, 2, 3});
  EXPECT_TRUE(a.HoldsAll(1, {0, 2}));
  EXPECT_FALSE(a.HoldsAll(1, {0, 1}));
  EXPECT_TRUE(a.HoldsAll(1, {}));  // Vacuous truth.
  EXPECT_EQ(a.BackendFragments(1), (FragmentSet{0, 2, 3}));
}

TEST(AllocationTest, ReplicaCountAcrossBackends) {
  Allocation a(3, 2, 1, 0);
  a.Place(0, 0);
  a.Place(1, 0);
  a.Place(2, 0);
  a.Place(1, 1);
  EXPECT_EQ(a.ReplicaCount(0), 3u);
  EXPECT_EQ(a.ReplicaCount(1), 1u);
}

TEST(AllocationTest, BackendBytes) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(2, 3, 4, 0);
  a.PlaceSet(0, {0, 1});
  a.Place(1, 2);
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 2.0);
  EXPECT_DOUBLE_EQ(a.BackendBytes(1, cls.catalog), 1.0);
}

TEST(AllocationTest, ReadAssignAccessors) {
  Allocation a(2, 3, 2, 1);
  a.set_read_assign(0, 1, 0.25);
  a.add_read_assign(0, 1, 0.05);
  EXPECT_DOUBLE_EQ(a.read_assign(0, 1), 0.30);
  EXPECT_DOUBLE_EQ(a.TotalReadAssign(1), 0.30);
  a.set_read_assign(1, 1, 0.10);
  EXPECT_DOUBLE_EQ(a.TotalReadAssign(1), 0.40);
}

TEST(AllocationTest, AssignedLoadSumsReadsAndUpdates) {
  Allocation a(2, 3, 2, 2);
  a.set_read_assign(0, 0, 0.2);
  a.set_read_assign(0, 1, 0.1);
  a.set_update_assign(0, 0, 0.05);
  a.set_update_assign(0, 1, 0.15);
  EXPECT_DOUBLE_EQ(a.AssignedReadLoad(0), 0.3);
  EXPECT_DOUBLE_EQ(a.AssignedUpdateLoad(0), 0.2);
  EXPECT_DOUBLE_EQ(a.AssignedLoad(0), 0.5);
  EXPECT_DOUBLE_EQ(a.AssignedLoad(1), 0.0);
}

TEST(AllocationTest, BindSizesMakesBytesIncremental) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(2, cls.catalog, 4, 0);
  EXPECT_TRUE(a.sizes_bound());
  a.PlaceSet(0, {0, 1});
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 2.0);
  a.Place(0, 2);
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 3.0);
  // Binding after the fact recomputes the same totals.
  Allocation late(2, 3, 4, 0);
  late.PlaceSet(0, {0, 1});
  late.Place(0, 2);
  late.BindSizes(cls.catalog);
  EXPECT_DOUBLE_EQ(late.BackendBytes(0, cls.catalog), 3.0);
}

TEST(AllocationTest, PlaceBitsAndRetainFragments) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(2, cls.catalog, 4, 0);
  DenseBitset bits(3);
  bits.Set(0);
  bits.Set(2);
  a.PlaceBits(0, bits);
  EXPECT_TRUE(a.IsPlaced(0, 0));
  EXPECT_FALSE(a.IsPlaced(0, 1));
  EXPECT_TRUE(a.IsPlaced(0, 2));
  EXPECT_TRUE(a.HoldsAllBits(0, bits));
  EXPECT_TRUE(a.RowIntersects(0, bits));
  EXPECT_EQ(a.ReplicaCount(0), 1u);
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 2.0);

  DenseBitset keep(3);
  keep.Set(2);
  a.RetainFragments(0, keep);
  EXPECT_FALSE(a.IsPlaced(0, 0));
  EXPECT_TRUE(a.IsPlaced(0, 2));
  EXPECT_EQ(a.ReplicaCount(0), 0u);
  EXPECT_EQ(a.ReplicaCount(2), 1u);
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 1.0);
}

TEST(AllocationTest, MissingBytesSumsAbsentFragments) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(1, cls.catalog, 4, 0);
  a.Place(0, 1);
  DenseBitset want(3);
  want.Set(0);
  want.Set(1);
  want.Set(2);
  EXPECT_DOUBLE_EQ(a.MissingBytes(0, want), 2.0);
}

TEST(AllocationTest, ClearBackendRowResetsRowAndAggregates) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(2, cls.catalog, 4, 1);
  a.PlaceSet(0, {0, 1, 2});
  a.PlaceSet(1, {0});
  a.set_read_assign(0, 0, 0.4);
  a.set_update_assign(0, 0, 0.1);
  a.ClearBackendRow(0);
  EXPECT_TRUE(a.BackendFragments(0).empty());
  EXPECT_DOUBLE_EQ(a.AssignedLoad(0), 0.0);
  EXPECT_DOUBLE_EQ(a.BackendBytes(0, cls.catalog), 0.0);
  EXPECT_DOUBLE_EQ(a.read_assign(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(a.update_assign(0, 0), 0.0);
  // Backend 1 is untouched, and replica counts see the removals.
  EXPECT_EQ(a.ReplicaCount(0), 1u);
  EXPECT_EQ(a.ReplicaCount(1), 0u);
  EXPECT_DOUBLE_EQ(a.BackendBytes(1, cls.catalog), 1.0);
}

TEST(AllocationTest, CopyBackendsFromRestoresEditedRows) {
  const Classification cls = testutil::GoldenInstance({120, 8, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(8);
  auto greedy = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  Allocation original = greedy.value();
  if (!original.sizes_bound()) original.BindSizes(cls.catalog);

  // Edit three backends: move read load, place every fragment on backend 1
  // (raising replica counts), drop all but one fragment from backend 5 and
  // pin an update class on backend 3.
  Allocation edited = original;
  const size_t bs[] = {1, 3, 5};
  edited.add_read_assign(1, 0, 0.125);
  edited.add_read_assign(3, 0, -0.125);
  DenseBitset all(cls.catalog.size());
  for (FragmentId f = 0; f < cls.catalog.size(); ++f) all.Set(f);
  edited.PlaceBits(1, all);
  DenseBitset keep(cls.catalog.size());
  keep.Set(0);
  edited.RetainFragments(5, keep);
  edited.set_update_assign(3, 0, cls.updates[0].weight + 1.0);
  ASSERT_NE(testutil::AllocationDigest(edited),
            testutil::AllocationDigest(original));
  const auto replicas = [](const Allocation& a) {
    return std::vector<uint32_t>(a.ReplicaCounts().begin(),
                                 a.ReplicaCounts().end());
  };
  ASSERT_NE(replicas(edited), replicas(original));

  // Restoring the edited rows makes the copy equal again, bit for bit, in
  // both directions.
  const auto expect_equal = [&](const Allocation& got,
                                const Allocation& want) {
    EXPECT_EQ(testutil::AllocationDigest(got),
              testutil::AllocationDigest(want));
    EXPECT_EQ(replicas(got), replicas(want));
    for (size_t b = 0; b < want.num_backends(); ++b) {
      EXPECT_EQ(got.AssignedReadLoad(b), want.AssignedReadLoad(b)) << b;
      EXPECT_EQ(got.AssignedUpdateLoad(b), want.AssignedUpdateLoad(b)) << b;
      EXPECT_EQ(got.BackendBytes(b, cls.catalog),
                want.BackendBytes(b, cls.catalog))
          << b;
    }
  };
  Allocation restored = edited;
  restored.CopyBackendsFrom(original, bs);
  expect_equal(restored, original);
  Allocation forward = original;
  forward.CopyBackendsFrom(edited, bs);
  expect_equal(forward, edited);
}

template <typename T>
bool SameBits(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// True iff \p x and \p y are equal bit for bit: rows, assignments, the
/// running aggregates and the replica counts.
::testing::AssertionResult Identical(const Allocation& x, const Allocation& y) {
  if (testutil::AllocationDigest(x) != testutil::AllocationDigest(y)) {
    return ::testing::AssertionFailure() << "rows or assignments differ";
  }
  if (x.sizes_bound() != y.sizes_bound() ||
      (x.sizes_bound() &&
       !SameBits(x.BackendBytesColumn(), y.BackendBytesColumn()))) {
    return ::testing::AssertionFailure() << "byte aggregates differ";
  }
  if (!SameBits(x.ReadLoadColumn(), y.ReadLoadColumn()) ||
      !SameBits(x.UpdateLoadColumn(), y.UpdateLoadColumn())) {
    return ::testing::AssertionFailure() << "load aggregates differ";
  }
  if (!SameBits(x.ReplicaCounts(), y.ReplicaCounts())) {
    return ::testing::AssertionFailure() << "replica counts differ";
  }
  return ::testing::AssertionSuccess();
}

/// CopyEditsFrom against CopyBackendsFrom over random edits shaped like a
/// memetic trial's: read cells moved between two backends (a cell may be
/// edited twice), fragments placed and dropped and update pins rewritten on
/// those backends, plus an orphan-placement target whose row gains a
/// fragment but none of whose read cells changes. Copying the edited cells
/// and rows back, or forward, must give what copying the whole rows gives,
/// bit for bit, with and without bound fragment sizes.
TEST(AllocationTest, CopyEditsFromMatchesCopyBackendsFrom) {
  const Classification cls = testutil::GoldenInstance({120, 8, 0.6, 2, 0});
  const auto backends = HomogeneousBackends(8);
  auto greedy = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  const size_t B = backends.size();
  const size_t F = cls.catalog.size();
  const size_t R = cls.reads.size();
  for (const bool bound : {true, false}) {
    Allocation base = greedy.value();
    if (bound) {
      base.BindSizes(cls.catalog);
    } else {
      // An unbound copy of the same rows: replay them onto a fresh shape.
      Allocation unbound(B, F, R, cls.updates.size());
      for (size_t b = 0; b < B; ++b) {
        unbound.PlaceBits(b, base.RowBits(b));
        for (size_t r = 0; r < R; ++r) {
          unbound.set_read_assign(b, r, base.read_assign(b, r));
        }
        for (size_t u = 0; u < cls.updates.size(); ++u) {
          unbound.set_update_assign(b, u, base.update_assign(b, u));
        }
      }
      base = unbound;
    }
    ASSERT_EQ(base.sizes_bound(), bound);
    Rng rng(bound ? 17 : 18);
    for (int step = 0; step < 300; ++step) {
      Allocation edited = base;
      const size_t b1 = rng.NextBounded(B);
      size_t b2 = rng.NextBounded(B - 1);
      if (b2 >= b1) ++b2;
      size_t orphan_target = rng.NextBounded(B);
      while (orphan_target == b1 || orphan_target == b2) {
        orphan_target = rng.NextBounded(B);
      }
      std::vector<ReadCell> cells;
      const size_t moves = 1 + rng.NextBounded(6);
      for (size_t i = 0; i < moves; ++i) {
        const size_t r = rng.NextBounded(R);
        const double w = edited.read_assign(b1, r) * rng.NextDouble(0.0, 1.0);
        edited.add_read_assign(b1, r, -w);
        edited.add_read_assign(b2, r, w);
        cells.push_back(ReadCell{static_cast<uint32_t>(b1),
                                 static_cast<uint32_t>(r)});
        cells.push_back(ReadCell{static_cast<uint32_t>(b2),
                                 static_cast<uint32_t>(r)});
      }
      edited.Place(b2, static_cast<FragmentId>(rng.NextBounded(F)));
      DenseBitset keep(F);
      for (size_t f = 0; f < F; ++f) {
        if (rng.NextBernoulli(0.8)) keep.Set(f);
      }
      edited.RetainFragments(b1, keep);
      const size_t u = rng.NextBounded(cls.updates.size());
      edited.set_update_assign(b1, u, rng.NextBernoulli(0.5)
                                          ? cls.updates[u].weight
                                          : 0.0);
      edited.Place(orphan_target, static_cast<FragmentId>(rng.NextBounded(F)));
      const size_t bs[] = {b1, b2, orphan_target};

      Allocation back_rows = edited;
      back_rows.CopyBackendsFrom(base, bs);
      Allocation back_cells = edited;
      back_cells.CopyEditsFrom(base, bs, cells);
      ASSERT_TRUE(Identical(back_cells, back_rows)) << "step " << step;
      ASSERT_TRUE(Identical(back_cells, base)) << "step " << step;

      Allocation forward_rows = base;
      forward_rows.CopyBackendsFrom(edited, bs);
      Allocation forward_cells = base;
      forward_cells.CopyEditsFrom(edited, bs, cells);
      ASSERT_TRUE(Identical(forward_cells, forward_rows)) << "step " << step;
      ASSERT_TRUE(Identical(forward_cells, edited)) << "step " << step;

      // Let the edits accumulate now and then, as accepted trials do.
      if (step % 3 == 0) base = edited;
    }
  }
}

TEST(AllocationTest, SnapshotRowRoundTrips) {
  Allocation a(2, 70, 1, 0);  // >64 fragments: exercises the second word.
  a.Place(0, 3);
  a.Place(0, 69);
  DenseBitset row;
  a.SnapshotRow(0, &row);
  EXPECT_TRUE(row.Test(3));
  EXPECT_TRUE(row.Test(69));
  EXPECT_EQ(row.Count(), 2u);
  EXPECT_EQ(row.ToFragmentSet(), (FragmentSet{3, 69}));
}

TEST(AllocationTest, ToStringMentionsAssignmentsAndFragments) {
  Classification cls = testutil::Figure2Classification();
  Allocation a(2, 3, 4, 0);
  a.PlaceSet(0, {0, 1});
  a.set_read_assign(0, 0, 0.30);
  const std::string s = a.ToString(cls);
  EXPECT_NE(s.find("C1"), std::string::npos);
  EXPECT_NE(s.find("A"), std::string::npos);
  EXPECT_NE(s.find("30.0%"), std::string::npos);
}

}  // namespace
}  // namespace qcap

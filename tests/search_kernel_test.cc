// SearchKernel's counted collection against the closure union it replaces.
// Every test drives two identical allocations through the same share edits:
// a counted mirror, edited with AddTrialShare/AddShare and collected from
// its ShareCounts (CollectCounted), and a reference edited with
// add_read_assign and collected from scratch by the closure union
// (testutil::UnionCollect in alloc_reference.h).
// After every collect the two must agree bit for bit: placement rows,
// update pins, replica counts and the running byte/load aggregates. Trials
// are then accepted or rejected the way the memetic search settles them,
// and the counts of both the member and its mirror are compared with an
// in-test recount, so a stale count shows up at once.
#include "alloc/search_kernel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "alloc/greedy.h"
#include "alloc/memetic_island.h"
#include "alloc_reference.h"
#include "common/random.h"
#include "common/stats.h"
#include "model/validation.h"
#include "test_util.h"

namespace qcap {
namespace {

using alloc_internal::SearchKernel;
using alloc_internal::ShareCounts;

template <typename T>
bool SameBits(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
}

/// An independent recount of \p a's share counts, in ShareCounts' layout:
/// the closure id lists of the reads above 1e-15 per backend, and the
/// candidates above 1e-12 per read by the O(B·R) scan the mutation draw
/// used to run.
ShareCounts Recount(const Classification& cls,
                    const ClassificationIndex& index, const Allocation& a) {
  const size_t B = a.num_backends();
  const size_t F = cls.catalog.size();
  const size_t U = cls.updates.size();
  const size_t R = cls.reads.size();
  const size_t frag_words = (F + 63) / 64;
  const size_t upd_words = (U + 63) / 64;
  const auto set_bit = [](uint64_t* words, size_t i) {
    words[i / 64] |= uint64_t{1} << (i % 64);
  };
  ShareCounts c;
  c.counts.assign(B * (F + U) + R, 0);
  c.bits.assign(B * (frag_words + upd_words), 0);
  for (size_t b = 0; b < B; ++b) {
    uint32_t* frag_refs = c.counts.data() + b * F;
    uint32_t* upd_refs = c.counts.data() + B * F + b * U;
    uint64_t* needed = c.bits.data() + b * frag_words;
    uint64_t* pinned = c.bits.data() + B * frag_words + b * upd_words;
    for (size_t r = 0; r < R; ++r) {
      const double share = a.read_assign(b, r);
      if (share > 1e-12) {
        ++c.counts[B * (F + U) + r];
        ++c.draw_total;
      }
      if (!(share > 1e-15)) continue;
      for (uint32_t f : index.read_closure_fragment_ids(r)) {
        ++frag_refs[f];
        set_bit(needed, f);
      }
      for (uint32_t u : index.read_closure_update_ids(r)) {
        ++upd_refs[u];
        set_bit(pinned, u);
      }
    }
  }
  return c;
}

/// True iff \p counts are \p a's, by the independent recount.
::testing::AssertionResult CountsMatch(const Classification& cls,
                                       const ClassificationIndex& index,
                                       const Allocation& a,
                                       const ShareCounts& counts) {
  const ShareCounts want = Recount(cls, index, a);
  const std::vector<uint32_t>& got = counts.counts;
  const size_t draw_at =
      a.num_backends() * (cls.catalog.size() + cls.updates.size());
  if (!std::equal(got.begin(), got.begin() + draw_at,
                  want.counts.begin(), want.counts.begin() + draw_at)) {
    return ::testing::AssertionFailure() << "reference counts differ";
  }
  if (counts.bits != want.bits) {
    return ::testing::AssertionFailure() << "needed/pinned bits differ";
  }
  if (got != want.counts || counts.draw_total != want.draw_total) {
    return ::testing::AssertionFailure() << "draw counts differ";
  }
  return ::testing::AssertionSuccess();
}

/// True iff \p x and \p y are equal bit for bit, aggregates included.
::testing::AssertionResult Identical(const Allocation& x, const Allocation& y) {
  if (testutil::AllocationDigest(x) != testutil::AllocationDigest(y)) {
    return ::testing::AssertionFailure() << "rows or assignments differ";
  }
  if (!SameBits(x.BackendBytesColumn(), y.BackendBytesColumn())) {
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

class SearchKernelTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cls_ = testutil::GoldenInstance({120, 8, 0.6, 7, 0});
    backends_ = HomogeneousBackends(6);
    index_ = std::make_unique<ClassificationIndex>(cls_);
    counted_kernel_ = std::make_unique<SearchKernel>(cls_, *index_, backends_);
    counted_kernel_->ReserveTrialLog();
    auto seed = GreedyAllocator().Allocate(cls_, backends_);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    base_ = seed.value();
    base_.BindSizes(cls_.catalog);
    testutil::UnionGarbageCollect(cls_, *index_, &base_);
    counted_kernel_->CountShares(base_, &base_counts_);
    ASSERT_TRUE(CountsMatch(cls_, *index_, base_, base_counts_));
    Restart();
  }

  /// A new local-search call: both copies equal the base, and the mirror
  /// carries the base's counts.
  void Restart() {
    mirror_ = base_;
    mirror_counts_ = base_counts_;
    reference_ = base_;
  }

  size_t B() const { return backends_.size(); }
  size_t R() const { return cls_.reads.size(); }

  /// The same share edit on both copies.
  void Edit(size_t b, size_t r, double delta) {
    counted_kernel_->AddTrialShare(&mirror_, &mirror_counts_, b, r, delta);
    reference_.add_read_assign(b, r, delta);
  }

  /// Gives read \p r's data to backend \p b on both copies, as a move that
  /// sends load there does before collecting.
  void Receive(size_t b, size_t r) {
    counted_kernel_->PlaceAndClose(&mirror_, b, index_->read_bits(r));
    reference_.PlaceBits(b, index_->read_bits(r));
    testutil::RescanClose(cls_, b, &reference_);
  }

  /// Collects \p bs on both copies and checks they agree.
  void CollectAndCompare(std::span<const size_t> bs) {
    counted_kernel_->CollectCounted(&mirror_, mirror_counts_, bs.data(),
                                    bs.size(), &touched_);
    std::vector<size_t> reference_touched;
    testutil::UnionCollect(cls_, *index_, &reference_, bs.data(), bs.size(),
                           &reference_touched);
    ASSERT_EQ(touched_, reference_touched);
    ASSERT_TRUE(Identical(mirror_, reference_));
    ASSERT_TRUE(CountsMatch(cls_, *index_, mirror_, mirror_counts_));
  }

  /// Settles the trial like the memetic search: an accepted trial becomes
  /// the base, a rejected one is restored from it.
  void Settle(bool accept) {
    if (accept) {
      base_.CopyBackendsFrom(mirror_, touched_);
      counted_kernel_->AcceptTrial(&base_counts_);
    } else {
      mirror_.CopyBackendsFrom(base_, touched_);
      reference_.CopyBackendsFrom(base_, touched_);
      counted_kernel_->RejectTrial(&mirror_counts_);
    }
    ASSERT_TRUE(Identical(mirror_, base_));
    ASSERT_TRUE(CountsMatch(cls_, *index_, base_, base_counts_));
    ASSERT_TRUE(CountsMatch(cls_, *index_, mirror_, mirror_counts_));
  }

  /// Re-collects every backend of both copies and compares, then puts
  /// both back to the base. Collecting edits no share, so the counts stay
  /// those of the base.
  void CheckAllCounts() {
    std::vector<size_t> all(B());
    for (size_t b = 0; b < B(); ++b) all[b] = b;
    CollectAndCompare(all);
    mirror_.CopyBackendsFrom(base_, all);
    reference_.CopyBackendsFrom(base_, all);
  }

  /// A (read, backend) pair with a positive share on the mirror.
  bool PickPositive(Rng* rng, size_t* r, size_t* b) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      *r = rng->NextBounded(R());
      *b = rng->NextBounded(B());
      if (mirror_.read_assign(*b, *r) > 1e-12) return true;
    }
    return false;
  }

  size_t OtherBackend(Rng* rng, size_t b) {
    size_t other = rng->NextBounded(B() - 1);
    return other >= b ? other + 1 : other;
  }

  /// Mutate's move: all or part of one positive share to another backend.
  void MutateShapedTrial(Rng* rng) {
    size_t r = 0, b1 = 0;
    ASSERT_TRUE(PickPositive(rng, &r, &b1));
    const size_t b2 = OtherBackend(rng, b1);
    const double have = mirror_.read_assign(b1, r);
    const double share =
        rng->NextBernoulli(0.5) ? have : have * rng->NextDouble(0.25, 1.0);
    Edit(b1, r, -share);
    Edit(b2, r, share);
    Receive(b2, r);
    const size_t bs[2] = {b1, b2};
    CollectAndCompare(bs);
  }

  /// ImproveSharedPairs' move: two reads split over the same two backends
  /// trade shares, so each gives one backend up (if delta is its share).
  void SharedPairTrial(Rng* rng) {
    for (int attempt = 0; attempt < 1000; ++attempt) {
      const size_t b1 = rng->NextBounded(B());
      const size_t b2 = OtherBackend(rng, b1);
      const size_t r1 = rng->NextBounded(R());
      const size_t r2 = rng->NextBounded(R());
      if (r1 == r2) continue;
      const double delta =
          std::min(mirror_.read_assign(b2, r1), mirror_.read_assign(b1, r2));
      if (delta <= 1e-12) continue;
      Edit(b2, r1, -delta);
      Edit(b1, r1, delta);
      Edit(b1, r2, -delta);
      Edit(b2, r2, delta);
      const size_t bs[2] = {b1, b2};
      CollectAndCompare(bs);
      return;
    }
    // No split pair right now: fall back to a move that creates one.
    MutateShapedTrial(rng);
  }

  /// ImproveUpdateReplicas' move: every read on b1 that overlaps update
  /// class u moves wholly to b2.
  void EvacuationTrial(Rng* rng) {
    const size_t u = rng->NextBounded(cls_.updates.size());
    const size_t b1 = rng->NextBounded(B());
    const size_t b2 = OtherBackend(rng, b1);
    for (size_t r = 0; r < R(); ++r) {
      if (mirror_.read_assign(b1, r) <= 1e-12) continue;
      if (!Intersects(index_->read_bits(r), index_->update_bits(u))) continue;
      const double w = mirror_.read_assign(b1, r);
      Edit(b1, r, -w);
      Edit(b2, r, w);
      Receive(b2, r);
    }
    const size_t bs[2] = {b1, b2};
    CollectAndCompare(bs);
  }

  /// Shares landing exactly on the threshold's edges: 0, exactly 1e-15
  /// (not positive) and the next double above it (positive), collecting
  /// after each step.
  void ThresholdTrial(Rng* rng) {
    size_t r = 0, b1 = 0;
    ASSERT_TRUE(PickPositive(rng, &r, &b1));
    const size_t b2 = OtherBackend(rng, b1);
    const size_t bs[2] = {b1, b2};
    const double have = mirror_.read_assign(b1, r);
    Edit(b1, r, -have);  // Exactly 0 on b1.
    ASSERT_EQ(mirror_.read_assign(b1, r), 0.0);
    Edit(b2, r, have);
    Receive(b2, r);
    CollectAndCompare(bs);
    const double above = std::nextafter(1e-15, 1.0);
    Edit(b1, r, 1e-15);  // Exactly the threshold: still not positive.
    ASSERT_EQ(mirror_.read_assign(b1, r), 1e-15);
    CollectAndCompare(bs);
    Edit(b1, r, above - 1e-15);  // Just above: positive.
    ASSERT_EQ(mirror_.read_assign(b1, r), above);
    Receive(b1, r);
    CollectAndCompare(bs);
    Edit(b1, r, 1e-15 - above);  // Back to exactly the threshold.
    ASSERT_EQ(mirror_.read_assign(b1, r), 1e-15);
    CollectAndCompare(bs);
    Edit(b1, r, -1e-15);  // And to 0.
    CollectAndCompare(bs);
  }

  Classification cls_;
  std::vector<BackendSpec> backends_;
  std::unique_ptr<ClassificationIndex> index_;
  std::unique_ptr<SearchKernel> counted_kernel_;
  Allocation base_;       // The member the trials start from.
  ShareCounts base_counts_;
  Allocation mirror_;     // Counted: collected from mirror_counts_.
  ShareCounts mirror_counts_;
  Allocation reference_;  // Collected by the closure union.
  std::vector<size_t> touched_;
};

TEST_F(SearchKernelTest, RandomTrialsCollectLikeTheUnion) {
  for (const uint64_t seed : {1, 2, 3}) {
    Rng rng(seed);
    for (int trial = 0; trial < 400; ++trial) {
      switch (rng.NextBounded(4)) {
        case 0:
          MutateShapedTrial(&rng);
          break;
        case 1:
          SharedPairTrial(&rng);
          break;
        case 2:
          EvacuationTrial(&rng);
          break;
        default:
          ThresholdTrial(&rng);
          break;
      }
      if (HasFatalFailure()) return;
      Settle(/*accept=*/rng.NextBernoulli(0.3));
      if (HasFatalFailure()) return;
      if (trial % 50 == 49) {
        CheckAllCounts();
        if (HasFatalFailure()) return;
        Restart();
      }
    }
    CheckAllCounts();
    if (HasFatalFailure()) return;
  }
}

TEST_F(SearchKernelTest, SeveralTrialsBeforeOneSettle) {
  // Counts follow every crossing, not just a trial's last state: edits,
  // collects and more edits before the trial is settled.
  Rng rng(11);
  for (int trial = 0; trial < 60; ++trial) {
    MutateShapedTrial(&rng);
    ThresholdTrial(&rng);
    MutateShapedTrial(&rng);
    if (HasFatalFailure()) return;
    // The trial may have touched up to six backends over three collects.
    touched_.resize(B());
    for (size_t b = 0; b < B(); ++b) touched_[b] = b;
    Settle(/*accept=*/trial % 3 == 0);
    if (HasFatalFailure()) return;
  }
  CheckAllCounts();
}

TEST_F(SearchKernelTest, RejectAfterMoreCrossingsThanTheLogReserves) {
  // One trial flips a share across the thresholds more often than the
  // crossing log reserves (2R entries); rejecting it must still leave exact
  // counts, and accepting the next trials must carry them to the member.
  Rng rng(5);
  size_t r = 0, b = 0;
  ASSERT_TRUE(PickPositive(&rng, &r, &b));
  const double have = mirror_.read_assign(b, r);
  for (size_t i = 0; i < 3 * R() + 10; ++i) {
    Edit(b, r, i % 2 == 0 ? -have : have);
  }
  Edit(b, r, -have);  // Ends at 0: the read left b.
  const size_t bs[1] = {b};
  CollectAndCompare(bs);
  if (HasFatalFailure()) return;
  Settle(/*accept=*/false);
  if (HasFatalFailure()) return;
  CheckAllCounts();
  if (HasFatalFailure()) return;
  for (int trial = 0; trial < 50; ++trial) {
    MutateShapedTrial(&rng);
    if (HasFatalFailure()) return;
    Settle(/*accept=*/trial % 2 == 0);
    if (HasFatalFailure()) return;
  }
  CheckAllCounts();
}

TEST_F(SearchKernelTest, CopyingAnotherMemberCarriesItsCounts) {
  // Each local-search call copies another member, counts included, into
  // the same mirror; the previous member's counts must not carry over.
  Rng rng(13);
  const Allocation first = base_;
  const ShareCounts first_counts = base_counts_;
  for (int round = 0; round < 6; ++round) {
    for (int trial = 0; trial < 10; ++trial) {
      MutateShapedTrial(&rng);
      if (HasFatalFailure()) return;
      Settle(/*accept=*/true);
      if (HasFatalFailure()) return;
    }
    if (round % 2 == 1) {
      base_ = first;
      base_counts_ = first_counts;
    }
    Restart();
  }
  CheckAllCounts();
}

TEST_F(SearchKernelTest, UneditedBackendCollectsLikeTheUnion) {
  // A backend no trial has edited collects from the seed's counts.
  const size_t bs[1] = {B() - 1};
  CollectAndCompare(bs);
}

/// Mutations of members that each carry their own counts, interleaved with
/// local-search trials on a mirror of one of them, as the memetic search
/// runs them: after every step each member's counts equal a recount, the
/// counted collection equals the union, and the draw picks the same pair as
/// the materialized candidate list.
TEST_F(SearchKernelTest, MembersKeepExactCountsThroughMutationsAndTrials) {
  struct Counted {
    Allocation alloc;
    ShareCounts counts;
  };
  for (const uint64_t seed : {21, 22, 23}) {
    Rng rng(seed);
    std::vector<Counted> population(4, Counted{base_, base_counts_});
    std::vector<size_t> union_touched;
    for (int step = 0; step < 150; ++step) {
      Counted& parent = population[rng.NextBounded(population.size())];
      Counted& child = population[rng.NextBounded(population.size())];
      if (&parent != &child) child = parent;
      if (rng.NextBernoulli(0.7)) {
        // A mutation: the draw, a count-aware move, the counted collect.
        ASSERT_GT(child.counts.draw_total, 0u);
        const size_t k = rng.NextBounded(child.counts.draw_total);
        size_t r = 0, b1 = 0;
        counted_kernel_->NthShare(child.alloc, child.counts, k, &r, &b1);
        size_t want = k;
        bool found = false;
        for (size_t rr = 0; rr < R() && !found; ++rr) {
          for (size_t bb = 0; bb < B() && !found; ++bb) {
            if (child.alloc.read_assign(bb, rr) > 1e-12 && want-- == 0) {
              ASSERT_EQ(rr, r);
              ASSERT_EQ(bb, b1);
              found = true;
            }
          }
        }
        ASSERT_TRUE(found);
        const size_t b2 = OtherBackend(&rng, b1);
        const double have = child.alloc.read_assign(b1, r);
        const double share =
            rng.NextBernoulli(0.5) ? have : have * rng.NextDouble(0.25, 1.0);
        Allocation reference = child.alloc;
        counted_kernel_->AddShare(&child.alloc, &child.counts, b1, r, -share);
        counted_kernel_->AddShare(&child.alloc, &child.counts, b2, r, share);
        counted_kernel_->PlaceAndClose(&child.alloc, b2, index_->read_bits(r));
        reference.add_read_assign(b1, r, -share);
        reference.add_read_assign(b2, r, share);
        reference.PlaceBits(b2, index_->read_bits(r));
        testutil::RescanClose(cls_, b2, &reference);
        const size_t bs[2] = {b1, b2};
        counted_kernel_->CollectCounted(&child.alloc, child.counts, bs, 2,
                                        &touched_);
        testutil::UnionCollect(cls_, *index_, &reference, bs, 2,
                               &union_touched);
        ASSERT_EQ(touched_, union_touched);
        ASSERT_TRUE(Identical(child.alloc, reference));
      } else {
        // A local-search call on the child: trials on a mirror.
        base_ = child.alloc;
        base_counts_ = child.counts;
        Restart();
        for (int trial = 0; trial < 4; ++trial) {
          switch (rng.NextBounded(3)) {
            case 0:
              SharedPairTrial(&rng);
              break;
            case 1:
              EvacuationTrial(&rng);
              break;
            default:
              ThresholdTrial(&rng);
              break;
          }
          if (HasFatalFailure()) return;
          Settle(/*accept=*/rng.NextBernoulli(0.4));
          if (HasFatalFailure()) return;
        }
        child.alloc = base_;
        child.counts = base_counts_;
      }
      for (const Counted& m : population) {
        ASSERT_TRUE(CountsMatch(cls_, *index_, m.alloc, m.counts))
            << "seed " << seed << " step " << step;
      }
    }
  }
}

/// GarbageCollect (the share counts, then a counted collection of every
/// backend and the orphans) against the closure union, from allocations
/// that are not collected: greedy results with shares moved between
/// backends, junk fragments and stale pins, over instances with
/// zero-weight update classes, unreferenced fragments and update classes
/// no read overlaps.
TEST(SearchKernelGarbageCollectTest, MatchesTheUnion) {
  for (const uint64_t seed : {1u, 2u, 3u}) {
    for (const bool unread : {false, true}) {
      Classification cls = testutil::GoldenInstance({120, 6, 1.1, seed, 0});
      if (unread) {
        cls = testutil::WithUnreadData(
            testutil::WithZeroWeightUpdates(std::move(cls)));
      }
      const auto backends = HomogeneousBackends(6);
      const ClassificationIndex index(cls);
      auto greedy = GreedyAllocator().Allocate(cls, backends);
      ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
      Allocation want = greedy.value();
      Rng rng(seed);
      for (int i = 0; i < 60; ++i) {
        const size_t r = rng.NextBounded(cls.reads.size());
        const size_t b1 = rng.NextBounded(6), b2 = rng.NextBounded(6);
        const double share = want.read_assign(b1, r) * rng.NextDouble(0, 1);
        want.add_read_assign(b1, r, -share);
        want.add_read_assign(b2, r, share);
        want.Place(rng.NextBounded(6),
                   static_cast<FragmentId>(rng.NextBounded(cls.catalog.size())));
        want.set_update_assign(rng.NextBounded(6),
                               rng.NextBounded(cls.updates.size()), 0.5);
      }
      Allocation got = want;
      SearchKernel kernel(cls, index, backends);
      kernel.GarbageCollect(&got);
      testutil::UnionGarbageCollect(cls, index, &want);
      ASSERT_TRUE(Identical(got, want)) << "seed " << seed;
      EXPECT_TRUE(ValidateAllocation(cls, got, backends).ok());
      // A second collection changes nothing.
      kernel.GarbageCollect(&got);
      EXPECT_TRUE(Identical(got, want)) << "seed " << seed;
    }
  }
}

/// A -0.0 class weight: collecting writes only the pins whose bits change,
/// which must leave the same pins and update loads as writing every pin
/// (set_update_assign of w over w adds +0.0, over -0.0 it would not).
TEST(SearchKernelNegativeZeroTest, CollectKeepsSignedZeroPinsExact) {
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 2.0).ok());
  cls.reads = {QueryClass{{0}, 0.7, 1.0, false, "Q1", {}},
               QueryClass{{1}, 0.3, 1.0, false, "Q2", {}}};
  cls.updates = {QueryClass{{0, 1}, -0.0, 1.0, true, "U1", {}},
                 QueryClass{{1}, 0.0, 1.0, true, "U2", {}}};
  ASSERT_TRUE(cls.Validate().ok());
  const auto backends = HomogeneousBackends(3);
  const ClassificationIndex index(cls);
  SearchKernel kernel(cls, index, backends);
  Allocation a(3, cls.catalog, 2, 2);
  a.PlaceBits(0, index.read_bits(0));
  a.set_read_assign(0, 0, 0.7);
  a.PlaceBits(1, index.read_bits(1));
  a.set_read_assign(1, 1, 0.3);
  a.set_update_assign(2, 1, -0.0);  // Stale: backend 2 holds nothing.
  for (int round = 0; round < 2; ++round) {
    kernel.GarbageCollect(&a);
    for (size_t b = 0; b < 3; ++b) {
      // Every pin write adds w - stored to the load, so writing them all
      // from +0.0 leaves +0.0: the load must be +0.0, never -0.0.
      EXPECT_EQ(std::bit_cast<uint64_t>(a.AssignedUpdateLoad(b)), 0u)
          << "backend " << b << " round " << round;
    }
    // U1 covers A and B, so its -0.0 weight is written wherever A or B
    // lives; U2 is written as +0.0 only where B lives, and backend 2's
    // stale -0.0 is cleared to +0.0.
    EXPECT_TRUE(std::signbit(a.update_assign(0, 0)));
    EXPECT_TRUE(std::signbit(a.update_assign(1, 0)));
    EXPECT_FALSE(std::signbit(a.update_assign(2, 0)));
    EXPECT_FALSE(std::signbit(a.update_assign(1, 1)));
    EXPECT_FALSE(std::signbit(a.update_assign(2, 1)));
  }
  ShareCounts counts;
  kernel.CountShares(a, &counts);
  ASSERT_TRUE(CountsMatch(cls, index, a, counts));
  Allocation reference = a;
  std::vector<size_t> touched, reference_touched;
  kernel.AddShare(&a, &counts, 0, 0, -0.7);
  kernel.AddShare(&a, &counts, 2, 0, 0.7);
  reference.add_read_assign(0, 0, -0.7);
  reference.add_read_assign(2, 0, 0.7);
  kernel.PlaceAndClose(&a, 2, index.read_bits(0));
  reference.PlaceBits(2, index.read_bits(0));
  testutil::RescanClose(cls, 2, &reference);
  const size_t bs[2] = {0, 2};
  kernel.CollectCounted(&a, counts, bs, 2, &touched);
  testutil::UnionCollect(cls, index, &reference, bs, 2, &reference_touched);
  EXPECT_EQ(touched, reference_touched);
  EXPECT_TRUE(Identical(a, reference));
  EXPECT_TRUE(CountsMatch(cls, index, a, counts));
}

/// 65,536 read classes: a count can exceed 16 bits. Every read is on
/// backend 0 and needs fragment A, so A's count there is 65,536; moving
/// reads away and back must keep it exact.
TEST(SearchKernelWideCountsTest, CountsAbove16BitsStayExact) {
  constexpr size_t kReads = size_t{1} << 16;
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  const double w = 1.0 / static_cast<double>(kReads + 1);
  cls.reads.assign(kReads, QueryClass{{0}, w, 1.0, false, "Q", {}});
  cls.reads[kReads - 1].fragments = {0, 1};
  cls.updates = {QueryClass{{1}, w, 1.0, true, "U1", {}}};
  const auto backends = HomogeneousBackends(2);
  const ClassificationIndex index(cls);
  SearchKernel kernel(cls, index, backends);
  Allocation a(2, cls.catalog, kReads, 1);
  a.PlaceBits(0, index.read_bits(kReads - 1));
  a.set_update_assign(0, 0, w);
  for (size_t r = 0; r < kReads; ++r) a.set_read_assign(0, r, w);
  kernel.GarbageCollect(&a);
  ShareCounts counts;
  kernel.CountShares(a, &counts);
  ASSERT_TRUE(CountsMatch(cls, index, a, counts));
  ASSERT_EQ(counts.counts[0], kReads);  // Fragment A on backend 0.
  Allocation reference = a;
  std::vector<size_t> touched, reference_touched;
  const size_t bs[2] = {0, 1};
  for (const size_t r : {size_t{0}, kReads - 1, size_t{7}}) {
    for (const double delta : {-w, w}) {
      kernel.AddShare(&a, &counts, 0, r, delta);
      kernel.AddShare(&a, &counts, 1, r, -delta);
      reference.add_read_assign(0, r, delta);
      reference.add_read_assign(1, r, -delta);
      const size_t to = delta < 0 ? 1 : 0;
      kernel.PlaceAndClose(&a, to, index.read_bits(r));
      reference.PlaceBits(to, index.read_bits(r));
      testutil::RescanClose(cls, to, &reference);
      kernel.CollectCounted(&a, counts, bs, 2, &touched);
      testutil::UnionCollect(cls, index, &reference, bs, 2,
                             &reference_touched);
      ASSERT_EQ(touched, reference_touched);
      ASSERT_TRUE(Identical(a, reference));
      ASSERT_TRUE(CountsMatch(cls, index, a, counts));
    }
  }
}

/// 65,536 backends: a read's draw count can exceed 16 bits too.
TEST(SearchKernelWideCountsTest, DrawCountsAbove16BitsStayExact) {
  constexpr size_t kBackends = size_t{1} << 16;
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 1.0, false, "Q", {}}};
  const auto backends = HomogeneousBackends(kBackends);
  const ClassificationIndex index(cls);
  SearchKernel kernel(cls, index, backends);
  Allocation a(kBackends, cls.catalog, 1, 0);
  const double w = 1.0 / static_cast<double>(kBackends);
  for (size_t b = 0; b < kBackends; ++b) {
    a.Place(b, 0);
    a.set_read_assign(b, 0, w);
  }
  ShareCounts counts;
  kernel.CountShares(a, &counts);
  ASSERT_TRUE(CountsMatch(cls, index, a, counts));
  ASSERT_EQ(counts.draw_total, kBackends);
  size_t r = 1, b = 0;
  kernel.NthShare(a, counts, kBackends - 1, &r, &b);
  EXPECT_EQ(r, 0u);
  EXPECT_EQ(b, kBackends - 1);
  kernel.AddShare(&a, &counts, 3, 0, -w);
  kernel.AddShare(&a, &counts, 5, 0, w);
  ASSERT_TRUE(CountsMatch(cls, index, a, counts));
  kernel.NthShare(a, counts, 3, &r, &b);
  EXPECT_EQ(b, 4u);  // Backend 3 is no longer a candidate.
}

/// True iff \p x and \p y hold bit-identical rows \p b: the allocation
/// row (placement, read and update assignments, aggregates) and the count
/// slices (fragment and update reference counts, needed and pinned bits).
::testing::AssertionResult SameRow(const Classification& cls,
                                   const alloc_internal::Member& x,
                                   const alloc_internal::Member& y, size_t b) {
  const Allocation& xa = x.alloc;
  const Allocation& ya = y.alloc;
  const size_t B = xa.num_backends();
  const size_t F = cls.catalog.size();
  const size_t U = cls.updates.size();
  const size_t frag_words = (F + 63) / 64;
  const size_t upd_words = (U + 63) / 64;
  const auto at = [](const auto& v, size_t offset, size_t n) {
    return std::span(v.data() + offset, n);
  };
  const auto one = [](std::span<const double> column, size_t i) {
    return column.subspan(i, 1);
  };
  bool same =
      SameBits(std::span(xa.RowBits(b).words(), xa.RowBits(b).num_words()),
               std::span(ya.RowBits(b).words(), ya.RowBits(b).num_words())) &&
      SameBits(xa.ReadAssignRow(b), ya.ReadAssignRow(b)) &&
      SameBits(one(xa.ReadLoadColumn(), b), one(ya.ReadLoadColumn(), b)) &&
      SameBits(one(xa.UpdateLoadColumn(), b), one(ya.UpdateLoadColumn(), b)) &&
      SameBits(one(xa.BackendBytesColumn(), b),
               one(ya.BackendBytesColumn(), b));
  for (size_t u = 0; u < U; ++u) {
    const double xu = xa.update_assign(b, u), yu = ya.update_assign(b, u);
    same = same && std::memcmp(&xu, &yu, sizeof(double)) == 0;
  }
  if (!same) {
    return ::testing::AssertionFailure() << "allocation rows " << b
                                         << " differ";
  }
  const std::vector<uint32_t>& xc = x.counts.counts;
  const std::vector<uint32_t>& yc = y.counts.counts;
  const std::vector<uint64_t>& xb = x.counts.bits;
  const std::vector<uint64_t>& yb = y.counts.bits;
  if (!SameBits<uint32_t>(at(xc, b * F, F), at(yc, b * F, F)) ||
      !SameBits<uint32_t>(at(xc, B * F + b * U, U),
                          at(yc, B * F + b * U, U)) ||
      !SameBits<uint64_t>(at(xb, b * frag_words, frag_words),
                          at(yb, b * frag_words, frag_words)) ||
      !SameBits<uint64_t>(at(xb, B * frag_words + b * upd_words, upd_words),
                          at(yb, B * frag_words + b * upd_words, upd_words))) {
    return ::testing::AssertionFailure() << "count slices " << b << " differ";
  }
  return ::testing::AssertionSuccess();
}

/// Two islands' members through random mutations, local searches (with
/// their accepted and rejected trials), whole generations and migrations:
/// after every step, any two members (the islands' trial mirrors included)
/// that carry the same stamp for a backend hold bit-identical rows and
/// count slices for it, and every member's counts are exact. At 120
/// fragments (300 read classes) a backend row holds about 3 KB and copies
/// take only the rows whose stamps differ; at 40 (100 read classes) it
/// holds about 1 KB and copies take every buffer whole.
class MemberStampTest : public ::testing::TestWithParam<size_t> {};

TEST_P(MemberStampTest, EqualStampsMeanIdenticalRows) {
  using alloc_internal::Evolver;
  using alloc_internal::Member;
  const Classification cls =
      testutil::GoldenInstance({GetParam(), 8, 0.6, 3, 0});
  const auto backends = HomogeneousBackends(6);
  const ClassificationIndex index(cls);
  auto greedy = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  SearchProgress progress;
  MemeticOptions opts;
  opts.seed = 5;
  opts.progress = &progress;
  const Member seed = alloc_internal::MakeSeedMember(
      cls, index, backends, greedy.value(), nullptr);
  std::vector<std::unique_ptr<Evolver>> islands;
  std::vector<std::vector<Member>> populations(2);
  for (size_t i = 0; i < 2; ++i) {
    islands.push_back(
        std::make_unique<Evolver>(cls, index, backends, opts, i));
    islands[i]->Prepare(seed, 6, &populations[i]);
    islands[i]->EvolveGenerations(&populations[i], 1);  // Grows to 6.
    ASSERT_EQ(populations[i].size(), 6u);
  }

  size_t shared_rows = 0;
  const auto check = [&](int step) {
    std::vector<const Member*> all;
    for (size_t i = 0; i < 2; ++i) {
      all.push_back(&islands[i]->trial());
      for (const Member& m : populations[i]) all.push_back(&m);
    }
    for (size_t x = 0; x < all.size(); ++x) {
      ASSERT_TRUE(CountsMatch(cls, index, all[x]->alloc, all[x]->counts))
          << "step " << step << ", member " << x;
      for (size_t y = x + 1; y < all.size(); ++y) {
        for (size_t b = 0; b < backends.size(); ++b) {
          if (all[x]->stamps[b] != all[y]->stamps[b]) continue;
          ++shared_rows;
          ASSERT_TRUE(SameRow(cls, *all[x], *all[y], b))
              << "step " << step << ", members " << x << " and " << y;
        }
      }
    }
  };

  Rng rng(29);
  for (int step = 0; step < 400; ++step) {
    const size_t i = rng.NextBounded(2);
    std::vector<Member>& population = populations[i];
    const size_t k = rng.NextBounded(population.size());
    switch (rng.NextBounded(4)) {
      case 0: {  // A mutation into another member's buffers.
        size_t child = rng.NextBounded(population.size() - 1);
        if (child >= k) ++child;
        islands[i]->Mutate(population[k], &population[child]);
        population[child].cost = islands[i]->Evaluate(population[child].alloc);
        break;
      }
      case 1:  // A local search: accepted and rejected trials.
        islands[i]->LocalImprove(&population[k]);
        population[k].cost = islands[i]->Evaluate(population[k].alloc);
        break;
      case 2: {  // A migration: a member copied into the other island.
        std::vector<Member>& target = populations[1 - i];
        islands[1 - i]->CopyMember(population[k],
                                   &target[rng.NextBounded(target.size())]);
        break;
      }
      default:  // A whole generation: selection swaps members around.
        islands[i]->EvolveGenerations(&population, 1);
        break;
    }
    check(step);
    if (HasFatalFailure()) return;
  }
  EXPECT_GT(progress.improvements.load(), 0u);
  EXPECT_GT(progress.evaluations.load(), 2 * progress.improvements.load());
  EXPECT_GT(shared_rows, 0u);
}

INSTANTIATE_TEST_SUITE_P(Fragments, MemberStampTest,
                         ::testing::Values(size_t{120}, size_t{40}));

}  // namespace
}  // namespace qcap

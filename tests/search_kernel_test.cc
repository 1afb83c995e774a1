// SearchKernel's reference-counted trial collection against the closure
// union it replaces. Every test drives two identical allocations through
// the same share edits: a tracked mirror collected from its counts
// (AddTrialShare/CollectTrial) and a reference collected from scratch
// (add_read_assign/GarbageCollectBackends). After every collect the two must
// agree bit for bit: placement rows, update pins, replica counts and the
// running byte/load aggregates. Trials are then accepted or rejected the way
// the memetic search settles them, so a stale count shows up as a diverging
// collect on a later trial.
#include "alloc/search_kernel.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "alloc/greedy.h"
#include "common/random.h"
#include "test_util.h"

namespace qcap {
namespace {

using alloc_internal::SearchKernel;

template <typename T>
bool SameBits(std::span<const T> x, std::span<const T> y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0;
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
    tracked_kernel_ = std::make_unique<SearchKernel>(cls_, *index_, backends_);
    union_kernel_ = std::make_unique<SearchKernel>(cls_, *index_, backends_);
    auto seed = GreedyAllocator().Allocate(cls_, backends_);
    ASSERT_TRUE(seed.ok()) << seed.status().ToString();
    base_ = seed.value();
    base_.BindSizes(cls_.catalog);
    union_kernel_->GarbageCollect(&base_);
    Restart();
  }

  /// A new local-search call: both copies equal the base, counts dropped.
  void Restart() {
    mirror_ = base_;
    reference_ = base_;
    tracked_kernel_->Track(&mirror_);
  }

  size_t B() const { return backends_.size(); }
  size_t R() const { return cls_.reads.size(); }

  /// The same share edit on both copies.
  void Edit(size_t b, size_t r, double delta) {
    tracked_kernel_->AddTrialShare(b, r, delta);
    reference_.add_read_assign(b, r, delta);
  }

  /// Gives read \p r's data to backend \p b on both copies, as a move that
  /// sends load there does before collecting.
  void Receive(size_t b, size_t r) {
    mirror_.PlaceBits(b, index_->read_bits(r));
    tracked_kernel_->CloseUpdates(&mirror_, b);
    reference_.PlaceBits(b, index_->read_bits(r));
    union_kernel_->CloseUpdates(&reference_, b);
  }

  /// Collects \p bs on both copies and checks they agree.
  void CollectAndCompare(std::span<const size_t> bs) {
    tracked_kernel_->CollectTrial(bs.data(), bs.size(), &touched_);
    std::vector<size_t> reference_touched;
    union_kernel_->GarbageCollectBackends(&reference_, bs.data(), bs.size(),
                                          &reference_touched);
    ASSERT_EQ(touched_, reference_touched);
    ASSERT_TRUE(Identical(mirror_, reference_));
  }

  /// Settles the trial like the memetic search: an accepted trial becomes
  /// the base, a rejected one is restored from it.
  void Settle(bool accept) {
    if (accept) {
      base_.CopyBackendsFrom(mirror_, touched_);
      tracked_kernel_->AcceptTrial();
    } else {
      mirror_.CopyBackendsFrom(base_, touched_);
      reference_.CopyBackendsFrom(base_, touched_);
      tracked_kernel_->RejectTrial();
    }
    ASSERT_TRUE(Identical(mirror_, base_));
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
  std::unique_ptr<SearchKernel> tracked_kernel_;
  std::unique_ptr<SearchKernel> union_kernel_;
  Allocation base_;       // The member the trials start from.
  Allocation mirror_;     // Tracked: collected from counts.
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

TEST_F(SearchKernelTest, RejectAfterCrossingLogOverflows) {
  // One trial flips a share across the threshold more often than the
  // crossing log holds; rejecting it must still leave exact counts.
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

TEST_F(SearchKernelTest, TrackingAnotherMemberRecounts) {
  // Each local-search call tracks another member in the same mirror; the
  // previous member's counts must not carry over.
  Rng rng(13);
  const Allocation first = base_;
  for (int round = 0; round < 6; ++round) {
    for (int trial = 0; trial < 10; ++trial) {
      MutateShapedTrial(&rng);
      if (HasFatalFailure()) return;
      Settle(/*accept=*/true);
      if (HasFatalFailure()) return;
    }
    if (round % 2 == 1) base_ = first;
    Restart();
  }
  CheckAllCounts();
}

TEST_F(SearchKernelTest, UncountedBackendCollectsByUnion) {
  // A backend with no share edit since Track has no counts; collecting it
  // falls back to the union.
  const size_t bs[1] = {B() - 1};
  CollectAndCompare(bs);
}

}  // namespace
}  // namespace qcap

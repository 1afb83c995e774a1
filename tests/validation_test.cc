#include "model/validation.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "alloc/greedy.h"
#include "test_util.h"

namespace qcap {
namespace {

/// A valid two-backend allocation of the Appendix A classification:
/// B1 = {A,B} with Q1,Q2,Q4,U1,U2; B2 = {C} with Q3,U3.
Allocation ValidTwoBackend(const Classification& cls) {
  Allocation a(2, cls.catalog.size(), cls.reads.size(), cls.updates.size());
  a.PlaceSet(0, {0, 1});
  a.Place(1, 2);
  a.set_read_assign(0, 0, 0.24);
  a.set_read_assign(0, 1, 0.20);
  a.set_read_assign(0, 3, 0.16);
  a.set_read_assign(1, 2, 0.20);
  a.set_update_assign(0, 0, 0.04);
  a.set_update_assign(0, 1, 0.10);
  a.set_update_assign(1, 2, 0.06);
  return a;
}

TEST(ValidationTest, AcceptsValidAllocation) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = ValidTwoBackend(cls);
  EXPECT_TRUE(
      ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsDimensionMismatch) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = ValidTwoBackend(cls);
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(3)).ok());
  Allocation wrong(2, 2, cls.reads.size(), cls.updates.size());
  EXPECT_FALSE(ValidateAllocation(cls, wrong, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsUnderAssignedRead) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_read_assign(0, 0, 0.10);  // Q1 no longer fully assigned.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsReadAssignedWithoutData) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_read_assign(1, 0, 0.0);
  a.set_read_assign(0, 0, 0.14);
  a.set_read_assign(1, 0, 0.10);  // B2 lacks A.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsNegativeAssignment) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_read_assign(0, 0, 0.30);
  a.set_read_assign(1, 0, -0.06);
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsUpdateNotPinnedWhereDataLives) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(0, 0, 0.0);  // A lives on B1 but U1 not pinned there.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsUpdateWithWrongWeight) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(0, 0, 0.02);  // Must be exactly weight(U1)=0.04.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsUpdateAssignedWithoutOverlap) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(1, 0, 0.04);  // B2 has no fragment of U1.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

// An update class is either pinned with its weight or not at all: a
// negative load is as invalid as a positive one where the data is absent.
TEST(ValidationTest, RejectsNegativeUpdateAssignedWithoutOverlap) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(1, 0, -0.3);  // B2 has no fragment of U1.
  const Status st = ValidateAllocation(cls, a, HomogeneousBackends(2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("assigned to backend 2 without overlapping"),
            std::string::npos)
      << st.ToString();
}

// Every comparison with NaN is false, so each check must be phrased to
// fail, not pass, on a NaN assignment.
TEST(ValidationTest, RejectsNaNReadAssignment) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_read_assign(0, 0, std::nan(""));  // B1 holds Q1's data.
  const Status st = ValidateAllocation(cls, a, HomogeneousBackends(2));
  EXPECT_FALSE(st.ok());
  EXPECT_NE(st.ToString().find("non-finite assignment of Q1 on backend 1"),
            std::string::npos)
      << st.ToString();
  Allocation b = ValidTwoBackend(cls);
  b.set_read_assign(1, 0, std::nan(""));  // B2 lacks it; Q1 also on B1.
  EXPECT_FALSE(ValidateAllocation(cls, b, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsNaNReadAssignmentOfGreedySynthetic) {
  const Classification cls = testutil::GoldenInstance({60, 4, 0.6, 1, 0});
  const auto backends = HomogeneousBackends(4);
  auto greedy = GreedyAllocator().Allocate(cls, backends);
  ASSERT_TRUE(greedy.ok()) << greedy.status().ToString();
  Allocation a = greedy.value();
  ASSERT_TRUE(ValidateAllocation(cls, a, backends).ok());
  a.set_read_assign(0, 0, std::nan(""));
  EXPECT_FALSE(ValidateAllocation(cls, a, backends).ok());
}

TEST(ValidationTest, RejectsNaNUpdateAssignmentWhereDataLives) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(0, 0, std::nan(""));  // B1 holds A: U1 must be 0.04.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsNaNUpdateAssignmentWithoutOverlap) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  a.set_update_assign(1, 0, std::nan(""));  // B2 has no fragment of U1.
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsPartialUpdateData) {
  // A backend storing only part of an update class's data violates ROWA.
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 0.5, 1.0, false, "Q1", {}},
               QueryClass{{1}, 0.3, 1.0, false, "Q2", {}}};
  cls.updates = {QueryClass{{0, 1}, 0.2, 1.0, true, "U1", {}}};
  Allocation a(2, 2, 2, 1);
  a.Place(0, 0);  // Only A on B1, but U1 references A and B.
  a.PlaceSet(1, {0, 1});
  a.set_read_assign(0, 0, 0.5);
  a.set_read_assign(1, 1, 0.3);
  a.set_update_assign(0, 0, 0.2);
  a.set_update_assign(1, 0, 0.2);
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(2)).ok());
}

TEST(ValidationTest, RejectsMissingFragment) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a = ValidTwoBackend(cls);
  // Rebuild without placing C anywhere: read/update for C unassigned too.
  Allocation b(2, 3, 4, 3);
  b.PlaceSet(0, {0, 1});
  b.set_read_assign(0, 0, 0.24);
  b.set_read_assign(0, 1, 0.20);
  b.set_read_assign(0, 3, 0.16);
  b.set_update_assign(0, 0, 0.04);
  b.set_update_assign(0, 1, 0.10);
  // Q3/U3 not assigned and C not placed.
  Status st = ValidateAllocation(cls, b, HomogeneousBackends(2));
  EXPECT_FALSE(st.ok());
}

TEST(ValidationTest, CompletenessCheckCanBeDisabled) {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("orphan", "O", FragmentKind::kTable, 1.0).ok());
  cls.reads = {QueryClass{{0}, 1.0, 1.0, false, "Q1", {}}};
  Allocation a(1, 2, 1, 0);
  a.Place(0, 0);
  a.set_read_assign(0, 0, 1.0);
  ValidationOptions strict;
  EXPECT_FALSE(ValidateAllocation(cls, a, HomogeneousBackends(1), strict).ok());
  ValidationOptions lax;
  lax.require_complete_data = false;
  EXPECT_TRUE(ValidateAllocation(cls, a, HomogeneousBackends(1), lax).ok());
}

TEST(ValidationTest, KSafetyRequiresReplicas) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = ValidTwoBackend(cls);
  ValidationOptions opts;
  opts.k_safety = 1;  // Each class on >= 2 backends: not satisfied here.
  EXPECT_FALSE(
      ValidateAllocation(cls, a, HomogeneousBackends(2), opts).ok());
}

TEST(ValidationTest, KSafetySatisfiedByFullReplication) {
  const Classification cls = testutil::AppendixAClassification();
  Allocation a(3, 3, 4, 3);
  for (size_t b = 0; b < 3; ++b) {
    a.PlaceSet(b, {0, 1, 2});
    for (size_t u = 0; u < 3; ++u) {
      a.set_update_assign(b, u, cls.updates[u].weight);
    }
  }
  for (size_t r = 0; r < 4; ++r) {
    a.set_read_assign(0, r, cls.reads[r].weight);
  }
  ValidationOptions opts;
  opts.k_safety = 2;
  EXPECT_TRUE(
      ValidateAllocation(cls, a, HomogeneousBackends(3), opts).ok());
}

/// A fully replicated three-backend allocation (every class everywhere).
Allocation FullThreeBackend(const Classification& cls) {
  Allocation a(3, 3, 4, 3);
  for (size_t b = 0; b < 3; ++b) {
    a.PlaceSet(b, {0, 1, 2});
    for (size_t u = 0; u < 3; ++u) {
      a.set_update_assign(b, u, cls.updates[u].weight);
    }
  }
  for (size_t r = 0; r < 4; ++r) {
    a.set_read_assign(0, r, cls.reads[r].weight);
  }
  return a;
}

TEST(CheckKSafetyTest, AllAliveFullReplicationIsKSafe) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = FullThreeBackend(cls);
  EXPECT_TRUE(CheckKSafety(cls, a, {true, true, true}, 2).ok());
  EXPECT_TRUE(CheckKSafety(cls, a, {true, true, true}, 0).ok());
}

TEST(CheckKSafetyTest, CrashShrinksTheMargin) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = FullThreeBackend(cls);
  // One dead backend: the survivors are 1-safe but no longer 2-safe
  // (Algorithm 3 over the alive sub-cluster).
  EXPECT_TRUE(CheckKSafety(cls, a, {true, false, true}, 1).ok());
  EXPECT_FALSE(CheckKSafety(cls, a, {true, false, true}, 2).ok());
  // Two dead: only servable, with zero margin.
  EXPECT_TRUE(CheckKSafety(cls, a, {false, false, true}, 0).ok());
  EXPECT_FALSE(CheckKSafety(cls, a, {false, false, true}, 1).ok());
}

TEST(CheckKSafetyTest, ZeroSafeAllocationFailsAfterExclusiveCrash) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = ValidTwoBackend(cls);
  // B2 exclusively holds fragment C: losing it makes Q3/U3 unservable even
  // at k = 0.
  auto status = CheckKSafety(cls, a, {true, false}, 0);
  EXPECT_FALSE(status.ok());
  EXPECT_TRUE(CheckKSafety(cls, a, {true, true}, 0).ok());
}

TEST(CheckKSafetyTest, RejectsBadArguments) {
  const Classification cls = testutil::AppendixAClassification();
  const Allocation a = ValidTwoBackend(cls);
  EXPECT_FALSE(CheckKSafety(cls, a, {true}, 0).ok());        // mask size
  EXPECT_FALSE(CheckKSafety(cls, a, {true, true}, -1).ok()); // negative k
}

}  // namespace
}  // namespace qcap

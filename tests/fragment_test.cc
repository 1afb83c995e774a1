#include "workload/fragment.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "common/random.h"

namespace qcap {
namespace {

TEST(FragmentCatalogTest, AddAndLookup) {
  FragmentCatalog catalog;
  auto a = catalog.Add("t1", "t1", FragmentKind::kTable, 100.0);
  ASSERT_TRUE(a.ok());
  EXPECT_EQ(a.value(), 0u);
  auto b = catalog.Add("t2", "t2", FragmentKind::kTable, 50.0);
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(b.value(), 1u);
  EXPECT_EQ(catalog.size(), 2u);
  EXPECT_EQ(catalog.Get(0).name, "t1");
  EXPECT_EQ(catalog.Get(1).size_bytes, 50.0);
  EXPECT_EQ(catalog.Find("t2").value(), 1u);
}

TEST(FragmentCatalogTest, RejectsDuplicates) {
  FragmentCatalog catalog;
  ASSERT_TRUE(catalog.Add("x", "x", FragmentKind::kTable, 1.0).ok());
  auto dup = catalog.Add("x", "x", FragmentKind::kTable, 2.0);
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
}

TEST(FragmentCatalogTest, RejectsEmptyNameAndNegativeSize) {
  FragmentCatalog catalog;
  EXPECT_FALSE(catalog.Add("", "t", FragmentKind::kTable, 1.0).ok());
  EXPECT_FALSE(catalog.Add("y", "t", FragmentKind::kTable, -1.0).ok());
}

TEST(FragmentCatalogTest, RejectsNonFiniteSize) {
  FragmentCatalog catalog;
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(catalog.Add("y", "t", FragmentKind::kTable, bad).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
  EXPECT_TRUE(catalog.empty());
}

TEST(FragmentCatalogTest, DifferenceBytesMatchesSetBytesOfDifference) {
  // Random sets over 150 fragments (three words, a ragged tail) with
  // irregular sizes, so a different summation order would show in the bits.
  Rng rng(3);
  FragmentCatalog catalog;
  const size_t F = 150;
  for (size_t f = 0; f < F; ++f) {
    ASSERT_TRUE(catalog
                    .Add("f" + std::to_string(f), "t", FragmentKind::kColumn,
                         rng.NextDouble() * 1e9 + 0.1)
                    .ok());
  }
  for (int round = 0; round < 50; ++round) {
    FragmentSet want, have;
    for (FragmentId f = 0; f < F; ++f) {
      if (rng.NextBernoulli(0.4)) want.push_back(f);
      if (rng.NextBernoulli(0.5)) have.push_back(f);
    }
    DenseBitset want_bits, have_bits;
    want_bits.AssignSet(want, F);
    have_bits.AssignSet(have, F);
    EXPECT_EQ(catalog.DifferenceBytes(want_bits, have_bits),
              catalog.SetBytes(SetDifference(want, have)));
    EXPECT_EQ(catalog.DifferenceBytes(want_bits, ConstBitSpan()),
              catalog.SetBytes(want));
  }
}

TEST(FragmentCatalogTest, FindMissing) {
  FragmentCatalog catalog;
  EXPECT_TRUE(catalog.Find("ghost").status().IsNotFound());
}

TEST(FragmentCatalogTest, SetAndTotalBytes) {
  FragmentCatalog catalog;
  ASSERT_TRUE(catalog.Add("a", "a", FragmentKind::kTable, 10.0).ok());
  ASSERT_TRUE(catalog.Add("b", "b", FragmentKind::kTable, 20.0).ok());
  ASSERT_TRUE(catalog.Add("c", "c", FragmentKind::kTable, 30.0).ok());
  EXPECT_DOUBLE_EQ(catalog.TotalBytes(), 60.0);
  EXPECT_DOUBLE_EQ(catalog.SetBytes({0, 2}), 40.0);
  EXPECT_DOUBLE_EQ(catalog.SetBytes({}), 0.0);
}

TEST(FragmentSetTest, NormalizeSortsAndDedups) {
  FragmentSet s = {3, 1, 2, 1, 3};
  NormalizeSet(&s);
  EXPECT_EQ(s, (FragmentSet{1, 2, 3}));
}

TEST(FragmentSetTest, Union) {
  EXPECT_EQ(SetUnion({1, 3}, {2, 3, 4}), (FragmentSet{1, 2, 3, 4}));
  EXPECT_EQ(SetUnion({}, {1}), (FragmentSet{1}));
  EXPECT_EQ(SetUnion({}, {}), FragmentSet{});
}

TEST(FragmentSetTest, Intersection) {
  EXPECT_EQ(SetIntersection({1, 2, 3}, {2, 3, 4}), (FragmentSet{2, 3}));
  EXPECT_EQ(SetIntersection({1}, {2}), FragmentSet{});
}

TEST(FragmentSetTest, Difference) {
  EXPECT_EQ(SetDifference({1, 2, 3}, {2}), (FragmentSet{1, 3}));
  EXPECT_EQ(SetDifference({1, 2}, {1, 2, 3}), FragmentSet{});
}

TEST(FragmentSetTest, SubsetAndIntersects) {
  EXPECT_TRUE(IsSubset({1, 2}, {1, 2, 3}));
  EXPECT_TRUE(IsSubset({}, {1}));
  EXPECT_FALSE(IsSubset({1, 4}, {1, 2, 3}));
  EXPECT_TRUE(Intersects({1, 5}, {5, 9}));
  EXPECT_FALSE(Intersects({1, 3}, {2, 4}));
  EXPECT_FALSE(Intersects({}, {1}));
}

TEST(FragmentSetTest, Contains) {
  EXPECT_TRUE(Contains({1, 3, 5}, 3));
  EXPECT_FALSE(Contains({1, 3, 5}, 4));
  EXPECT_FALSE(Contains({}, 0));
}

// Property sweep: the set algebra obeys the usual identities on random sets.
class SetAlgebraProperty : public ::testing::TestWithParam<uint64_t> {};

TEST_P(SetAlgebraProperty, Identities) {
  Rng rng(GetParam());
  auto random_set = [&]() {
    FragmentSet s;
    for (FragmentId f = 0; f < 24; ++f) {
      if (rng.NextBernoulli(0.4)) s.push_back(f);
    }
    return s;
  };
  for (int iter = 0; iter < 50; ++iter) {
    const FragmentSet a = random_set();
    const FragmentSet b = random_set();
    // |A ∪ B| = |A| + |B| - |A ∩ B|.
    EXPECT_EQ(SetUnion(a, b).size(),
              a.size() + b.size() - SetIntersection(a, b).size());
    // A \ B and A ∩ B partition A.
    EXPECT_EQ(SetDifference(a, b).size() + SetIntersection(a, b).size(),
              a.size());
    // A ⊆ A ∪ B; A ∩ B ⊆ A.
    EXPECT_TRUE(IsSubset(a, SetUnion(a, b)));
    EXPECT_TRUE(IsSubset(SetIntersection(a, b), a));
    // Intersects consistent with intersection emptiness.
    EXPECT_EQ(Intersects(a, b), !SetIntersection(a, b).empty());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SetAlgebraProperty,
                         ::testing::Range<uint64_t>(1, 9));

}  // namespace
}  // namespace qcap

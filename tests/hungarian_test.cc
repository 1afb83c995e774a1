#include "solver/hungarian.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace qcap {
namespace {

TEST(HungarianTest, SingleElement) {
  auto r = SolveAssignment({{7.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignment, (std::vector<size_t>{0}));
  EXPECT_DOUBLE_EQ(r->total_cost, 7.0);
}

TEST(HungarianTest, TwoByTwo) {
  // Diagonal is cheaper.
  auto r = SolveAssignment({{1.0, 10.0}, {10.0, 1.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->assignment, (std::vector<size_t>{0, 1}));
  EXPECT_DOUBLE_EQ(r->total_cost, 2.0);
}

TEST(HungarianTest, ClassicExample) {
  auto r = SolveAssignment({{4.0, 1.0, 3.0},
                            {2.0, 0.0, 5.0},
                            {3.0, 2.0, 2.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->total_cost, 5.0);  // (0,1)+(1,0)+(2,2) = 1+2+2.
}

TEST(HungarianTest, AssignmentIsPermutation) {
  Rng rng(5);
  const size_t n = 8;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = rng.NextDouble() * 100.0;
  }
  auto r = SolveAssignment(cost);
  ASSERT_TRUE(r.ok());
  std::vector<size_t> sorted = r->assignment;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> expected(n);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(sorted, expected);
}

TEST(HungarianTest, HandlesNegativeCosts) {
  auto r = SolveAssignment({{-5.0, 0.0}, {0.0, -5.0}});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r->total_cost, -10.0);
}

TEST(HungarianTest, RejectsEmptyAndNonSquare) {
  EXPECT_FALSE(SolveAssignment({}).ok());
  EXPECT_FALSE(SolveAssignment({{1.0, 2.0}}).ok());
}

TEST(HungarianTest, RejectsNonFiniteCells) {
  // Non-finite cells used to be accepted: a matching came back from
  // meaningless comparisons, and a row with no finite cell made the
  // augmenting-path search loop forever.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad : {nan, inf, -inf}) {
    EXPECT_EQ(SolveAssignment({{bad, 1.0}, {1.0, bad}}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    EXPECT_EQ(SolveAssignment({{bad, bad}, {0.0, 1.0}}).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
    const std::vector<double> flat = {0.0, 2.0, 3.0, bad};
    EXPECT_EQ(SolveAssignment(flat, 2).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

TEST(HungarianTest, FlatMatrixMatchesNested) {
  Rng rng(9);
  const size_t n = 7;
  std::vector<std::vector<double>> nested(n, std::vector<double>(n));
  std::vector<double> flat;
  for (auto& row : nested) {
    for (double& c : row) {
      c = rng.NextDouble() * 100.0;
      flat.push_back(c);
    }
  }
  const auto a = SolveAssignment(nested);
  const auto b = SolveAssignment(flat, n);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->assignment, b->assignment);
  EXPECT_EQ(a->total_cost, b->total_cost);
  EXPECT_FALSE(SolveAssignment(flat, n - 1).ok());
  EXPECT_FALSE(SolveAssignment(flat, 0).ok());
}

/// Random matrices cross-checked against brute-force permutation search.
class HungarianSweep : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HungarianSweep, MatchesBruteForce) {
  Rng rng(GetParam());
  const size_t n = 6;
  std::vector<std::vector<double>> cost(n, std::vector<double>(n));
  for (auto& row : cost) {
    for (double& c : row) c = std::floor(rng.NextDouble() * 50.0);
  }
  auto r = SolveAssignment(cost);
  ASSERT_TRUE(r.ok());

  std::vector<size_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0);
  double best = 1e18;
  do {
    double total = 0.0;
    for (size_t i = 0; i < n; ++i) total += cost[i][perm[i]];
    best = std::min(best, total);
  } while (std::next_permutation(perm.begin(), perm.end()));
  EXPECT_NEAR(r->total_cost, best, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HungarianSweep,
                         ::testing::Range<uint64_t>(1, 13));

}  // namespace
}  // namespace qcap

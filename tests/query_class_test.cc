#include "workload/query_class.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <span>
#include <string>
#include <vector>

namespace qcap {
namespace {

/// Materializes a CSR span accessor result for gtest comparisons.
std::vector<size_t> ToVec(std::span<const size_t> s) {
  return std::vector<size_t>(s.begin(), s.end());
}
std::vector<uint32_t> Ids(std::span<const uint32_t> s) {
  return std::vector<uint32_t>(s.begin(), s.end());
}

/// Builds the Appendix A classification: Q1={A} 24%, Q2={B} 20%, Q3={C}
/// 20%, Q4={A,B} 16%; U1={A} 4%, U2={B} 10%, U3={C} 6%. Fragments A=0,
/// B=1, C=2, each of size 1.
Classification AppendixAClassification() {
  Classification cls;
  EXPECT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 1.0).ok());
  cls.reads = {
      QueryClass{{0}, 0.24, 1.0, false, "Q1", {}},
      QueryClass{{1}, 0.20, 1.0, false, "Q2", {}},
      QueryClass{{2}, 0.20, 1.0, false, "Q3", {}},
      QueryClass{{0, 1}, 0.16, 1.0, false, "Q4", {}},
  };
  cls.updates = {
      QueryClass{{0}, 0.04, 1.0, true, "U1", {}},
      QueryClass{{1}, 0.10, 1.0, true, "U2", {}},
      QueryClass{{2}, 0.06, 1.0, true, "U3", {}},
  };
  return cls;
}

TEST(QueryClassTest, OverlappingUpdates) {
  const Classification cls = AppendixAClassification();
  EXPECT_EQ(cls.OverlappingUpdates(cls.reads[0]), (std::vector<size_t>{0}));
  EXPECT_EQ(cls.OverlappingUpdates(cls.reads[1]), (std::vector<size_t>{1}));
  EXPECT_EQ(cls.OverlappingUpdates(cls.reads[2]), (std::vector<size_t>{2}));
  EXPECT_EQ(cls.OverlappingUpdates(cls.reads[3]), (std::vector<size_t>{0, 1}));
  // An update class overlaps itself.
  EXPECT_EQ(cls.OverlappingUpdates(cls.updates[0]), (std::vector<size_t>{0}));
}

TEST(QueryClassTest, OverlappingUpdateWeight) {
  const Classification cls = AppendixAClassification();
  EXPECT_NEAR(cls.OverlappingUpdateWeight(cls.reads[0]), 0.04, 1e-12);
  // Q4 drags U1 + U2 = 14%.
  EXPECT_NEAR(cls.OverlappingUpdateWeight(cls.reads[3]), 0.14, 1e-12);
}

TEST(QueryClassTest, FragmentsWithUpdates) {
  const Classification cls = AppendixAClassification();
  EXPECT_EQ(cls.FragmentsWithUpdates(cls.reads[0]), (FragmentSet{0}));
  EXPECT_EQ(cls.FragmentsWithUpdates(cls.reads[3]), (FragmentSet{0, 1}));
}

TEST(QueryClassTest, NumClassesAndTotalWeight) {
  const Classification cls = AppendixAClassification();
  EXPECT_EQ(cls.NumClasses(), 7u);
  EXPECT_NEAR(cls.TotalWeight(), 1.0, 1e-12);
}

TEST(QueryClassTest, ValidateAcceptsWellFormed) {
  EXPECT_TRUE(AppendixAClassification().Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsEmptyFragmentSet) {
  Classification cls = AppendixAClassification();
  cls.reads[0].fragments.clear();
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsBadWeightSum) {
  Classification cls = AppendixAClassification();
  cls.reads[0].weight = 0.5;
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsUnknownFragment) {
  Classification cls = AppendixAClassification();
  cls.reads[0].fragments = {99};
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsUnsortedFragments) {
  Classification cls = AppendixAClassification();
  cls.reads[3].fragments = {1, 0};
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsMisplacedUpdateFlag) {
  Classification cls = AppendixAClassification();
  cls.reads[0].is_update = true;
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(QueryClassTest, ValidateRejectsNonFiniteOrNegativeWeightAndCost) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  struct Row {
    const char* name;
    double weight;
    double mean_cost;
    bool ok;
  };
  // Rows edit Q1 (weight 0.24, cost 1) and keep the total at 1 when legal.
  const Row rows[] = {
      {"well formed", 0.24, 1.0, true},
      {"zero cost", 0.24, 0.0, true},
      {"NaN weight", nan, 1.0, false},
      {"negative weight", -0.24, 1.0, false},
      {"infinite weight", inf, 1.0, false},
      {"NaN cost", 0.24, nan, false},
      {"infinite cost", 0.24, inf, false},
      {"negative cost", 0.24, -1.0, false},
  };
  for (const Row& row : rows) {
    Classification cls = AppendixAClassification();
    cls.reads[0].weight = row.weight;
    cls.reads[0].mean_cost = row.mean_cost;
    const Status status = cls.Validate();
    EXPECT_EQ(status.ok(), row.ok) << row.name << ": " << status.ToString();
    if (!row.ok) {
      EXPECT_NE(status.message().find("'Q1'"), std::string::npos) << row.name;
    }
  }
  Classification cls = AppendixAClassification();
  cls.updates[2].mean_cost = nan;
  EXPECT_FALSE(cls.Validate().ok());
}

TEST(ClassificationIndexTest, MatchesNaiveHelpers) {
  const Classification cls = AppendixAClassification();
  const ClassificationIndex index(cls);
  ASSERT_EQ(index.num_reads(), cls.reads.size());
  ASSERT_EQ(index.num_updates(), cls.updates.size());
  for (size_t r = 0; r < cls.reads.size(); ++r) {
    EXPECT_EQ(index.read_bits(r).ToFragmentSet(), cls.reads[r].fragments);
    EXPECT_EQ(ToVec(index.read_overlapping_updates(r)),
              cls.OverlappingUpdates(cls.reads[r]));
    EXPECT_DOUBLE_EQ(index.read_overlapping_update_weight(r),
                     cls.OverlappingUpdateWeight(cls.reads[r]));
    const FragmentSet bundle = cls.FragmentsWithUpdates(cls.reads[r]);
    EXPECT_EQ(index.read_bundle_bits(r).ToFragmentSet(), bundle);
    EXPECT_DOUBLE_EQ(index.read_bundle_bytes(r), cls.catalog.SetBytes(bundle));
  }
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    EXPECT_EQ(index.update_bits(u).ToFragmentSet(), cls.updates[u].fragments);
    EXPECT_EQ(ToVec(index.update_overlapping_updates(u)),
              cls.OverlappingUpdates(cls.updates[u]));
    EXPECT_DOUBLE_EQ(index.update_overlapping_update_weight(u),
                     cls.OverlappingUpdateWeight(cls.updates[u]));
  }
}

TEST(ClassificationIndexTest, InvertedIndexAndOverlappingReads) {
  const Classification cls = AppendixAClassification();
  const ClassificationIndex index(cls);
  // Fragment A=0 is referenced by Q1 and Q4.
  EXPECT_EQ(ToVec(index.reads_of_fragment(0)), (std::vector<size_t>{0, 3}));
  // U1={A} overlaps Q1 and Q4; every update here has an overlapping read.
  EXPECT_EQ(ToVec(index.reads_overlapping_update(0)), (std::vector<size_t>{0, 3}));
  for (size_t u = 0; u < cls.updates.size(); ++u) {
    EXPECT_FALSE(index.reads_overlapping_update(u).empty());
  }
}

TEST(ClassificationIndexTest, ClosureMatchesFixpoint) {
  // Chained updates: U1={A,B} and U2={B,C} overlap transitively, so a read
  // on {A} must keep the closure {A,B,C} and both update pins.
  Classification cls;
  ASSERT_TRUE(cls.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("C", "C", FragmentKind::kTable, 1.0).ok());
  ASSERT_TRUE(cls.catalog.Add("D", "D", FragmentKind::kTable, 1.0).ok());
  cls.reads = {
      QueryClass{{0}, 0.4, 1.0, false, "Q1", {}},
      QueryClass{{3}, 0.3, 1.0, false, "Q2", {}},
  };
  cls.updates = {
      QueryClass{{0, 1}, 0.2, 1.0, true, "U1", {}},
      QueryClass{{1, 2}, 0.1, 1.0, true, "U2", {}},
  };
  ASSERT_TRUE(cls.Validate().ok());
  const ClassificationIndex index(cls);
  EXPECT_EQ(Ids(index.read_closure_fragment_ids(0)),
            (std::vector<uint32_t>{0, 1, 2}));
  EXPECT_EQ(Ids(index.read_closure_update_ids(0)),
            (std::vector<uint32_t>{0, 1}));
  // Q2={D} touches no update: closure is just its own fragments.
  EXPECT_EQ(Ids(index.read_closure_fragment_ids(1)),
            (std::vector<uint32_t>{3}));
  EXPECT_TRUE(index.read_closure_update_ids(1).empty());
}

/// The set bits of a span as sorted 32-bit ids (the CSR mirrors' type).
std::vector<uint32_t> SetBits(ConstBitSpan bits) {
  std::vector<uint32_t> out;
  bits.ForEachSetBit([&](size_t i) { out.push_back(static_cast<uint32_t>(i)); });
  return out;
}

/// The two fixtures above: Appendix A (singleton overlaps) and the chained
/// closure instance (transitive component).
std::vector<Classification> IndexFixtures() {
  std::vector<Classification> out;
  out.push_back(AppendixAClassification());
  Classification chained;
  EXPECT_TRUE(chained.catalog.Add("A", "A", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(chained.catalog.Add("B", "B", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(chained.catalog.Add("C", "C", FragmentKind::kTable, 1.0).ok());
  EXPECT_TRUE(chained.catalog.Add("D", "D", FragmentKind::kTable, 1.0).ok());
  chained.reads = {
      QueryClass{{0}, 0.4, 1.0, false, "Q1", {}},
      QueryClass{{3}, 0.3, 1.0, false, "Q2", {}},
  };
  chained.updates = {
      QueryClass{{0, 1}, 0.2, 1.0, true, "U1", {}},
      QueryClass{{1, 2}, 0.1, 1.0, true, "U2", {}},
  };
  out.push_back(std::move(chained));
  return out;
}

TEST(ClassificationIndexTest, ComponentsPartitionUpdates) {
  for (const Classification& cls : IndexFixtures()) {
    // qcap-lint: allow(index-in-loop) -- one index per test fixture, by design
    const ClassificationIndex index(cls);
    // Every update class lands in exactly one overlap component, and a
    // component's fragment row is the union of its updates' fragments.
    std::vector<int> owners(index.num_updates(), 0);
    for (size_t c = 0; c < index.num_components(); ++c) {
      EXPECT_FALSE(index.component_updates(c).None()) << "component " << c;
      DenseBitset expected(cls.catalog.size());
      index.component_updates(c).ForEachSetBit([&](size_t u) {
        ++owners[u];
        expected.UnionWith(index.update_bits(u));
      });
      EXPECT_EQ(index.component_fragments(c).ToFragmentSet(),
                expected.ToFragmentSet())
          << "component " << c;
    }
    for (size_t u = 0; u < index.num_updates(); ++u) {
      EXPECT_EQ(owners[u], 1) << "update " << u;
    }
  }
}

TEST(ClassificationIndexTest, ReadComponentsReconstructClosure) {
  for (const Classification& cls : IndexFixtures()) {
    // qcap-lint: allow(index-in-loop) -- one index per test fixture, by design
    const ClassificationIndex index(cls);
    for (size_t r = 0; r < index.num_reads(); ++r) {
      // read_components(r) lists each touched component once; unioning the
      // component rows over that list plus the read's own fragments must
      // give exactly the closure id lists, ascending, or the counted
      // collection keeps another set than the closure union.
      const std::span<const uint32_t> comps = index.read_components(r);
      std::vector<uint32_t> sorted(comps.begin(), comps.end());
      std::sort(sorted.begin(), sorted.end());
      EXPECT_TRUE(std::adjacent_find(sorted.begin(), sorted.end()) ==
                  sorted.end())
          << "read " << r << " lists a component twice";
      DenseBitset frags(cls.catalog.size());
      frags.UnionWith(index.read_bits(r));
      DenseBitset upds(cls.updates.size());
      for (uint32_t c : comps) {
        frags.UnionWith(index.component_fragments(c));
        upds.UnionWith(index.component_updates(c));
      }
      EXPECT_EQ(Ids(index.read_closure_fragment_ids(r)), SetBits(frags))
          << "read " << r;
      EXPECT_EQ(Ids(index.read_closure_update_ids(r)), SetBits(upds))
          << "read " << r;
    }
  }
}

}  // namespace
}  // namespace qcap

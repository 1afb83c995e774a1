#include "exec/cost_model.h"

#include <gtest/gtest.h>

#include "alloc/greedy.h"
#include "test_util.h"
#include "workload/classifier.h"
#include "workloads/synthetic_scale.h"
#include "workloads/tpcapp.h"
#include "workloads/tpch.h"

namespace qcap {
namespace {

TEST(CatalogTest, TableAndColumnBytes) {
  engine::Catalog catalog = workloads::TpchCatalog(1.0);
  auto lineitem = catalog.TableBytes("lineitem");
  ASSERT_TRUE(lineitem.ok());
  // 6M rows x ~140 B/row: several hundred MB.
  EXPECT_GT(lineitem.value(), 5e8);
  auto col = catalog.ColumnBytes("lineitem", "l_quantity");
  ASSERT_TRUE(col.ok());
  EXPECT_DOUBLE_EQ(col.value(), 6000000.0 * 8.0);
  EXPECT_FALSE(catalog.TableBytes("ghost").ok());
  EXPECT_FALSE(catalog.ColumnBytes("lineitem", "ghost").ok());
}

TEST(CatalogTest, ScaleFactorScalesLinearly) {
  engine::Catalog sf1 = workloads::TpchCatalog(1.0);
  engine::Catalog sf10 = workloads::TpchCatalog(10.0);
  EXPECT_NEAR(sf10.TotalBytes(), 10.0 * sf1.TotalBytes(), 1.0);
}

TEST(CatalogTest, RejectsDuplicatesAndEmpty) {
  engine::Catalog catalog;
  engine::TableDef t{"t", {{"c", engine::ColumnType::kInt32, 0, true}}, 10};
  ASSERT_TRUE(catalog.AddTable(t).ok());
  EXPECT_FALSE(catalog.AddTable(t).ok());
  engine::TableDef empty{"e", {}, 10};
  EXPECT_FALSE(catalog.AddTable(empty).ok());
}

TEST(TypesTest, Widths) {
  using engine::ColumnType;
  using engine::TypeWidth;
  EXPECT_EQ(TypeWidth(ColumnType::kInt32, 0), 4u);
  EXPECT_EQ(TypeWidth(ColumnType::kInt64, 0), 8u);
  EXPECT_EQ(TypeWidth(ColumnType::kDecimal, 0), 8u);
  EXPECT_EQ(TypeWidth(ColumnType::kDate, 0), 4u);
  EXPECT_EQ(TypeWidth(ColumnType::kChar, 17), 17u);
  EXPECT_EQ(TypeWidth(ColumnType::kVarchar, 55), 55u);
}

TEST(TypesTest, Names) {
  using engine::ColumnType;
  using engine::TypeName;
  EXPECT_EQ(TypeName(ColumnType::kInt32, 0), "int32");
  EXPECT_EQ(TypeName(ColumnType::kVarchar, 55), "varchar(55)");
}

TEST(CostModelTest, CachePenaltyGrowsWithResidentBytes) {
  engine::CostModelParams params;
  params.memory_bytes = 1000.0;
  engine::CostModel model(params);
  const Classification cls = testutil::Figure2Classification();
  const QueryClass& c = cls.reads[0];
  const double fits = model.ServiceSeconds(cls, c, 500.0, 1.0);
  const double spills = model.ServiceSeconds(cls, c, 4000.0, 1.0);
  EXPECT_GT(spills, fits);
  // Bounded by the max penalty.
  const double huge = model.ServiceSeconds(cls, c, 1e15, 1.0);
  EXPECT_LE(huge, fits * params.max_cache_penalty + 1e-12);
}

TEST(CostModelTest, FasterBackendIsFaster) {
  engine::CostModel model;
  const Classification cls = testutil::Figure2Classification();
  const QueryClass& c = cls.reads[0];
  EXPECT_LT(model.ServiceSeconds(cls, c, 0.0, 2.0),
            model.ServiceSeconds(cls, c, 0.0, 1.0));
}

TEST(CostModelTest, ColumnGranularityReducesServiceTime) {
  // Classify one TPC-H query at table vs column granularity: the column
  // variant touches fewer bytes, so its service time must be smaller.
  engine::Catalog catalog = workloads::TpchCatalog(1.0);
  QueryJournal journal;
  journal.Record(workloads::TpchQueries()[0], 100);  // Q1: lineitem subset.

  Classifier table_cls(catalog, {Granularity::kTable, 4, true});
  Classifier column_cls(catalog, {Granularity::kColumn, 4, true});
  auto table_result = table_cls.Classify(journal);
  auto column_result = column_cls.Classify(journal);
  ASSERT_TRUE(table_result.ok());
  ASSERT_TRUE(column_result.ok());

  engine::CostModel model;
  const double t_table = model.ServiceSeconds(
      table_result.value(), table_result->reads[0], 0.0, 1.0);
  const double t_column = model.ServiceSeconds(
      column_result.value(), column_result->reads[0], 0.0, 1.0);
  EXPECT_LT(t_column, t_table);
}

TEST(CostModelTest, ServiceMatrixShape) {
  const Classification cls = testutil::AppendixAClassification();
  const auto backends = HomogeneousBackends(3);
  Allocation a(3, 3, 4, 3);
  for (size_t b = 0; b < 3; ++b) a.PlaceSet(b, {0, 1, 2});
  engine::CostModel model;
  const auto matrix = model.ServiceMatrix(cls, a, backends);
  ASSERT_EQ(matrix.size(), 7u * 3u);  // 7 classes x 3 backends, row-major
  for (double v : matrix) EXPECT_GT(v, 0.0);
}

/// Backend \p b's resident bytes as the matrix defines them, computed
/// independently: the SetUnion of the fragments of every class the backend
/// is eligible for, times 1 + 0.1 per class beyond the first.
double ReferenceResident(const Classification& cls, const Allocation& alloc,
                         size_t b) {
  const FragmentSet held = alloc.BackendFragments(b);
  FragmentSet working;
  size_t served = 0;
  for (const QueryClass& r : cls.reads) {
    if (IsSubset(r.fragments, held)) {
      working = SetUnion(working, r.fragments);
      ++served;
    }
  }
  for (const QueryClass& u : cls.updates) {
    if (Intersects(u.fragments, held)) {
      working = SetUnion(working, u.fragments);
      ++served;
    }
  }
  const double mixing =
      served > 1 ? 1.0 + 0.10 * static_cast<double>(served - 1) : 1.0;
  return cls.catalog.SetBytes(working) * mixing;
}

/// FNV-1a over the bits of every cell.
uint64_t MatrixDigest(const std::vector<double>& matrix) {
  uint64_t h = 1469598103934665603ULL;
  for (double v : matrix) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(&v);
    for (size_t i = 0; i < sizeof(v); ++i) {
      h = (h ^ bytes[i]) * 1099511628211ULL;
    }
  }
  return h;
}

/// Four heterogeneous backends.
std::vector<BackendSpec> FourBackends() {
  auto backends = HeterogeneousBackends({0.4, 0.3, 0.2, 0.1});
  EXPECT_TRUE(backends.ok());
  return backends.ok() ? backends.value() : HomogeneousBackends(4);
}

/// \p alloc's layout of \p cls on FourBackends(), with memory a fifth of
/// the database so the cache penalty fires on some backends. Every matrix
/// cell must equal (exactly) the single-cell ServiceSeconds of the same
/// class and backend, and the matrix must hash to the pinned \p digest, so
/// the matrix and the single-cell reference, which share their per-class
/// factors, cannot drift together.
void ExpectMatrixMatchesCells(const Classification& cls,
                              const Allocation& alloc, uint64_t digest) {
  const std::vector<BackendSpec> backends = FourBackends();
  const size_t n = backends.size();
  engine::CostModelParams params;
  params.memory_bytes = cls.catalog.TotalBytes() / 5.0;
  const engine::CostModel model(params);
  const std::vector<double> matrix = model.ServiceMatrix(cls, alloc, backends);
  ASSERT_EQ(matrix.size(), cls.NumClasses() * n);
  size_t spilling = 0;
  for (size_t b = 0; b < n; ++b) {
    const double resident = ReferenceResident(cls, alloc, b);
    if (resident > params.memory_bytes) ++spilling;
    const double speed = backends[b].relative_load * static_cast<double>(n);
    for (size_t i = 0; i < cls.NumClasses(); ++i) {
      const QueryClass& c = i < cls.reads.size()
                                ? cls.reads[i]
                                : cls.updates[i - cls.reads.size()];
      EXPECT_EQ(matrix[i * n + b],
                model.ServiceSeconds(cls, c, resident, speed))
          << "class " << c.label << ", backend " << b;
    }
  }
  EXPECT_GT(spilling, 0u) << "the cache-penalty branch never fired";
  EXPECT_EQ(MatrixDigest(matrix), digest);
}

/// Greedy layout of \p cls on FourBackends(), checked as above.
void ExpectGreedyMatrixMatchesCells(const Classification& cls,
                                    uint64_t digest) {
  auto alloc = GreedyAllocator().Allocate(cls, FourBackends());
  ASSERT_TRUE(alloc.ok()) << alloc.status().ToString();
  ExpectMatrixMatchesCells(cls, alloc.value(), digest);
}

Classification Classify(const engine::Catalog& catalog,
                        const QueryJournal& journal, Granularity g) {
  Classifier classifier(catalog, {g, 4, true});
  auto cls = classifier.Classify(journal);
  EXPECT_TRUE(cls.ok()) << cls.status().ToString();
  return cls.ok() ? std::move(cls).value() : Classification{};
}

Classification Synthetic1000() {
  workloads::ScaleOptions so;
  so.num_fragments = 1000;
  so.num_read_classes = 2500;
  so.num_update_classes = 100;
  so.zipf_exponent = 0.6;
  so.seed = 7;
  return workloads::MakeScaleClassification(so);
}

TEST(CostModelTest, MatrixMatchesCellsTpchColumns) {
  ExpectGreedyMatrixMatchesCells(
      Classify(workloads::TpchCatalog(1.0), workloads::TpchJournal(),
               Granularity::kColumn),
      0xfd3b53000d13b7bfULL);
}

TEST(CostModelTest, MatrixMatchesCellsTpcAppTables) {
  ExpectGreedyMatrixMatchesCells(
      Classify(workloads::TpcAppCatalog(), workloads::TpcAppJournal(20000),
               Granularity::kTable),
      0xf71f35940e9c6d41ULL);
}

TEST(CostModelTest, MatrixMatchesCellsSynthetic) {
  ExpectGreedyMatrixMatchesCells(Synthetic1000(), 0xedebadf1f8158b85ULL);
}

// The allocators co-place every update class whole. A striped layout also
// leaves backends holding only part of an update class, which must still
// count toward their working set, and part of a read class, which must
// not.
TEST(CostModelTest, MatrixMatchesCellsSyntheticStriped) {
  const Classification cls = Synthetic1000();
  Allocation alloc(4, cls.catalog.size(), cls.reads.size(),
                   cls.updates.size());
  for (size_t b = 0; b < 4; ++b) {
    for (FragmentId f = 0; f < cls.catalog.size(); ++f) {
      if ((f / (b + 1)) % 2 == 0) alloc.Place(b, f);
    }
  }
  ExpectMatrixMatchesCells(cls, alloc, 0xdaae6f3fe151ec41ULL);
}

TEST(CostModelTest, MeanCostScalesServiceTime) {
  const Classification cls = testutil::Figure2Classification();
  engine::CostModel model;
  QueryClass cheap = cls.reads[0];
  cheap.mean_cost = 1.0;
  QueryClass pricey = cls.reads[0];
  pricey.mean_cost = 10.0;
  EXPECT_NEAR(model.ServiceSeconds(cls, pricey, 0.0, 1.0),
              10.0 * model.ServiceSeconds(cls, cheap, 0.0, 1.0), 1e-12);
}

}  // namespace
}  // namespace qcap

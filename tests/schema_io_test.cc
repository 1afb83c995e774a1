#include "engine/schema_io.h"

#include <cstdio>

#include <gtest/gtest.h>

#include "workloads/tpch.h"

namespace qcap::engine {
namespace {

void ExpectCatalogsEqual(const Catalog& a, const Catalog& b) {
  ASSERT_EQ(a.NumTables(), b.NumTables());
  EXPECT_DOUBLE_EQ(a.scale_factor(), b.scale_factor());
  for (size_t t = 0; t < a.tables().size(); ++t) {
    const TableDef& ta = a.tables()[t];
    const TableDef& tb = b.tables()[t];
    EXPECT_EQ(ta.name, tb.name);
    EXPECT_EQ(ta.base_rows, tb.base_rows);
    ASSERT_EQ(ta.columns.size(), tb.columns.size()) << ta.name;
    for (size_t c = 0; c < ta.columns.size(); ++c) {
      EXPECT_EQ(ta.columns[c].name, tb.columns[c].name);
      EXPECT_EQ(ta.columns[c].type, tb.columns[c].type);
      EXPECT_EQ(ta.columns[c].width(), tb.columns[c].width());
      EXPECT_EQ(ta.columns[c].primary_key, tb.columns[c].primary_key);
    }
  }
  EXPECT_DOUBLE_EQ(a.TotalBytes(), b.TotalBytes());
}

TEST(SchemaIoTest, RoundTripTpch) {
  const Catalog catalog = workloads::TpchCatalog(3.0);
  auto loaded = DeserializeCatalog(SerializeCatalog(catalog));
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCatalogsEqual(catalog, loaded.value());
}

TEST(SchemaIoTest, ParsesHandWrittenSchema) {
  const char* text = R"(# my schema
scale 2.0
table users 1000
col id int64 pk
col name varchar 40
col joined date
table events 50000
col id int64 pk
col user int64
col kind char 8
col amount decimal
)";
  auto catalog = DeserializeCatalog(text);
  ASSERT_TRUE(catalog.ok()) << catalog.status().ToString();
  EXPECT_EQ(catalog->NumTables(), 2u);
  EXPECT_DOUBLE_EQ(catalog->scale_factor(), 2.0);
  auto users = catalog->FindTable("users");
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(users.value()->columns.size(), 3u);
  EXPECT_TRUE(users.value()->columns[0].primary_key);
  auto rows = catalog->TableRows("events");
  ASSERT_TRUE(rows.ok());
  EXPECT_DOUBLE_EQ(rows.value(), 100000.0);  // 50000 x scale 2.
}

TEST(SchemaIoTest, RejectsMalformedInput) {
  EXPECT_FALSE(DeserializeCatalog("").ok());
  EXPECT_FALSE(DeserializeCatalog("col orphan int64\n").ok());
  EXPECT_FALSE(DeserializeCatalog("table t\n").ok());  // Missing rows.
  EXPECT_FALSE(
      DeserializeCatalog("table t 10\ncol c ghosttype\n").ok());
  EXPECT_FALSE(
      DeserializeCatalog("table t 10\ncol c varchar\n").ok());  // No width.
  EXPECT_FALSE(
      DeserializeCatalog("table t 10\ncol c int64 banana\n").ok());
  EXPECT_FALSE(DeserializeCatalog("bogus line\n").ok());
  EXPECT_FALSE(DeserializeCatalog("scale -1\ntable t 1\ncol c int64\n").ok());
  EXPECT_FALSE(DeserializeCatalog("table t -1\ncol c int64\n").ok());
  EXPECT_FALSE(DeserializeCatalog("table t 10abc\ncol c int64\n").ok());
  EXPECT_FALSE(  // Stored as width 4294967288 by a sign-accepting parser.
      DeserializeCatalog("table t 10\ncol c varchar -8\n").ok());
}

TEST(SchemaIoTest, SaveAndLoadFile) {
  const std::string path = "/tmp/qcap_schema_io_test.schema";
  const Catalog catalog = workloads::TpchCatalog(1.0);
  ASSERT_TRUE(SaveCatalog(catalog, path).ok());
  auto loaded = LoadCatalog(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectCatalogsEqual(catalog, loaded.value());
  std::remove(path.c_str());
  EXPECT_TRUE(LoadCatalog("/tmp/missing-qcap-schema").status().IsNotFound());
}

}  // namespace
}  // namespace qcap::engine

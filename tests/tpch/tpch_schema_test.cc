#include "tpch/tpch_schema.h"

#include <gtest/gtest.h>

namespace midas {
namespace tpch {
namespace {

TEST(TpchSchemaTest, CatalogHasEightTables) {
  auto catalog = MakeCatalog(1.0);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->tables().size(), 8u);
  for (const char* name : {"region", "nation", "supplier", "customer",
                           "part", "partsupp", "orders", "lineitem"}) {
    EXPECT_TRUE(catalog->Contains(name)) << name;
  }
}

TEST(TpchSchemaTest, Sf1Cardinalities) {
  auto catalog = MakeCatalog(1.0);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->Find("lineitem").ValueOrDie()->row_count, 6'000'000u);
  EXPECT_EQ(catalog->Find("orders").ValueOrDie()->row_count, 1'500'000u);
  EXPECT_EQ(catalog->Find("customer").ValueOrDie()->row_count, 150'000u);
  EXPECT_EQ(catalog->Find("part").ValueOrDie()->row_count, 200'000u);
  EXPECT_EQ(catalog->Find("region").ValueOrDie()->row_count, 5u);
  EXPECT_EQ(catalog->Find("nation").ValueOrDie()->row_count, 25u);
}

TEST(TpchSchemaTest, ScaleFactorScalesBigTablesOnly) {
  auto catalog = MakeCatalog(0.1);
  ASSERT_TRUE(catalog.ok());
  EXPECT_EQ(catalog->Find("lineitem").ValueOrDie()->row_count, 600'000u);
  EXPECT_EQ(catalog->Find("region").ValueOrDie()->row_count, 5u);
  EXPECT_EQ(catalog->Find("nation").ValueOrDie()->row_count, 25u);
}

TEST(TpchSchemaTest, TotalBytesRoughlyMatchScaleFactor) {
  // SF 1 is defined as ~1 GB of raw data; our width model should land in
  // the right order of magnitude (0.5 .. 1.5 GB).
  auto catalog = MakeCatalog(1.0);
  ASSERT_TRUE(catalog.ok());
  const double gb = catalog->TotalBytes() / 1e9;
  EXPECT_GT(gb, 0.5);
  EXPECT_LT(gb, 1.5);
}

TEST(TpchSchemaTest, NonPositiveScaleRejected) {
  EXPECT_FALSE(MakeCatalog(0.0).ok());
  EXPECT_FALSE(MakeCatalog(-1.0).ok());
}

TEST(TpchSchemaTest, LineitemHasPaperQueryColumns) {
  auto catalog = MakeCatalog(1.0);
  ASSERT_TRUE(catalog.ok());
  const TableDef* li = catalog->Find("lineitem").ValueOrDie();
  for (const char* col : {"l_orderkey", "l_partkey", "l_shipmode",
                          "l_shipdate", "l_commitdate", "l_receiptdate",
                          "l_quantity"}) {
    EXPECT_TRUE(li->FindColumn(col).ok()) << col;
  }
  EXPECT_EQ(li->FindColumn("l_shipmode").ValueOrDie()->distinct_values, 7u);
}

TEST(TpchSchemaTest, ForeignKeyNdvsTrackReferencedTables) {
  auto catalog = MakeCatalog(0.5);
  ASSERT_TRUE(catalog.ok());
  const TableDef* li = catalog->Find("lineitem").ValueOrDie();
  EXPECT_EQ(li->FindColumn("l_orderkey").ValueOrDie()->distinct_values,
            750'000u);
  const TableDef* orders = catalog->Find("orders").ValueOrDie();
  EXPECT_EQ(orders->FindColumn("o_custkey").ValueOrDie()->distinct_values,
            75'000u);
}

TEST(TpchSchemaTest, PaperScaleConstants) {
  EXPECT_DOUBLE_EQ(kScaleFactor100MiB, 0.1);
  EXPECT_DOUBLE_EQ(kScaleFactor1GiB, 1.0);
}

}  // namespace
}  // namespace tpch
}  // namespace midas

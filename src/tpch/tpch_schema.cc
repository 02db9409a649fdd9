#include "tpch/tpch_schema.h"

#include <cmath>

namespace midas {
namespace tpch {

namespace {

uint64_t Scale(uint64_t sf1_rows, double sf) {
  return static_cast<uint64_t>(std::llround(sf1_rows * sf));
}

uint64_t ClampNdv(uint64_t ndv, uint64_t rows) {
  return std::max<uint64_t>(1, std::min(ndv, rows));
}

ColumnDef Int(const std::string& name, uint64_t ndv) {
  return ColumnDef{name, ColumnType::kInt, 4.0, ndv};
}
ColumnDef Double(const std::string& name, uint64_t ndv) {
  return ColumnDef{name, ColumnType::kDouble, 8.0, ndv};
}
ColumnDef Str(const std::string& name, double width, uint64_t ndv) {
  return ColumnDef{name, ColumnType::kString, width, ndv};
}
ColumnDef Date(const std::string& name) {
  // 1992-01-01 .. 1998-12-31: 2,557 distinct dates in dbgen.
  return ColumnDef{name, ColumnType::kDate, 4.0, 2557};
}

}  // namespace

StatusOr<Catalog> MakeCatalog(double scale_factor) {
  if (scale_factor <= 0.0) {
    return Status::InvalidArgument("scale factor must be positive");
  }
  Catalog catalog;

  auto add = [&](TableDef def) { return catalog.AddTable(std::move(def)); };

  {
    TableDef t;
    t.name = "region";
    t.row_count = kRegionRows;
    t.columns = {Int("r_regionkey", 5), Str("r_name", 12, 5),
                 Str("r_comment", 60, 5)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "nation";
    t.row_count = kNationRows;
    t.columns = {Int("n_nationkey", 25), Str("n_name", 16, 25),
                 Int("n_regionkey", 5), Str("n_comment", 75, 25)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "supplier";
    t.row_count = Scale(kSupplierRowsSf1, scale_factor);
    t.columns = {Int("s_suppkey", t.row_count),
                 Str("s_name", 18, t.row_count),
                 Str("s_address", 25, t.row_count),
                 Int("s_nationkey", 25),
                 Str("s_phone", 15, t.row_count),
                 Double("s_acctbal", ClampNdv(100000, t.row_count)),
                 Str("s_comment", 62, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "customer";
    t.row_count = Scale(kCustomerRowsSf1, scale_factor);
    t.columns = {Int("c_custkey", t.row_count),
                 Str("c_name", 18, t.row_count),
                 Str("c_address", 25, t.row_count),
                 Int("c_nationkey", 25),
                 Str("c_phone", 15, t.row_count),
                 Double("c_acctbal", ClampNdv(100000, t.row_count)),
                 Str("c_mktsegment", 10, 5),
                 Str("c_comment", 73, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "part";
    t.row_count = Scale(kPartRowsSf1, scale_factor);
    t.columns = {Int("p_partkey", t.row_count),
                 Str("p_name", 33, t.row_count),
                 Str("p_mfgr", 25, 5),
                 Str("p_brand", 10, 25),
                 Str("p_type", 21, 150),
                 Int("p_size", 50),
                 Str("p_container", 10, 40),
                 Double("p_retailprice", ClampNdv(20000, t.row_count)),
                 Str("p_comment", 15, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "partsupp";
    t.row_count = Scale(kPartSuppRowsSf1, scale_factor);
    t.columns = {Int("ps_partkey", Scale(kPartRowsSf1, scale_factor)),
                 Int("ps_suppkey", Scale(kSupplierRowsSf1, scale_factor)),
                 Int("ps_availqty", 10000),
                 Double("ps_supplycost", ClampNdv(100000, t.row_count)),
                 Str("ps_comment", 124, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "orders";
    t.row_count = Scale(kOrdersRowsSf1, scale_factor);
    t.columns = {Int("o_orderkey", t.row_count),
                 Int("o_custkey", Scale(kCustomerRowsSf1, scale_factor)),
                 Str("o_orderstatus", 1, 3),
                 Double("o_totalprice", ClampNdv(1000000, t.row_count)),
                 Date("o_orderdate"),
                 Str("o_orderpriority", 15, 5),
                 Str("o_clerk", 15, ClampNdv(1000, t.row_count)),
                 Int("o_shippriority", 1),
                 Str("o_comment", 49, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  {
    TableDef t;
    t.name = "lineitem";
    t.row_count = Scale(kLineitemRowsSf1, scale_factor);
    t.columns = {Int("l_orderkey", Scale(kOrdersRowsSf1, scale_factor)),
                 Int("l_partkey", Scale(kPartRowsSf1, scale_factor)),
                 Int("l_suppkey", Scale(kSupplierRowsSf1, scale_factor)),
                 Int("l_linenumber", 7),
                 Double("l_quantity", 50),
                 Double("l_extendedprice", ClampNdv(1000000, t.row_count)),
                 Double("l_discount", 11),
                 Double("l_tax", 9),
                 Str("l_returnflag", 1, 3),
                 Str("l_linestatus", 1, 2),
                 Date("l_shipdate"),
                 Date("l_commitdate"),
                 Date("l_receiptdate"),
                 Str("l_shipinstruct", 25, 4),
                 Str("l_shipmode", 10, 7),
                 Str("l_comment", 27, t.row_count)};
    MIDAS_RETURN_IF_ERROR(add(t));
  }
  return catalog;
}

}  // namespace tpch
}  // namespace midas

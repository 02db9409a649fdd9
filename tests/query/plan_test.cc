#include "query/plan.h"

#include <cmath>
#include <functional>
#include <limits>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace midas {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  TableDef a;
  a.name = "a";
  a.row_count = 1000;
  a.columns = {{"id", ColumnType::kInt, 8.0, 1000},
               {"payload", ColumnType::kString, 92.0, 1000}};
  catalog.AddTable(a).CheckOK();
  TableDef b;
  b.name = "b";
  b.row_count = 100;
  b.columns = {{"id", ColumnType::kInt, 8.0, 100},
               {"tag", ColumnType::kString, 12.0, 10}};
  catalog.AddTable(b).CheckOK();
  return catalog;
}

QueryPlan JoinPlan() {
  return QueryPlan(
      MakeJoin(MakeScan("a"), MakeScan("b"), "id", "id"));
}

TEST(PlanTest, MakeScanShape) {
  auto scan = MakeScan("a");
  EXPECT_EQ(scan->kind, OperatorKind::kScan);
  EXPECT_EQ(scan->table, "a");
  EXPECT_TRUE(scan->children.empty());
}

TEST(PlanTest, NodesPreOrder) {
  QueryPlan plan = JoinPlan();
  auto nodes = plan.Nodes();
  ASSERT_EQ(nodes.size(), 3u);
  EXPECT_EQ(nodes[0]->kind, OperatorKind::kJoin);
  EXPECT_EQ(nodes[1]->table, "a");
  EXPECT_EQ(nodes[2]->table, "b");
}

TEST(PlanTest, BaseTables) {
  QueryPlan plan = JoinPlan();
  auto tables = plan.BaseTables();
  ASSERT_EQ(tables.size(), 2u);
  EXPECT_EQ(tables[0], "a");
  EXPECT_EQ(tables[1], "b");
}

TEST(PlanTest, CopyIsDeep) {
  QueryPlan plan = JoinPlan();
  QueryPlan copy = plan;
  copy.MutableNodes()[1]->table = "changed";
  EXPECT_EQ(plan.Nodes()[1]->table, "a");
}

TEST(PlanTest, ValidateAcceptsWellFormedPlan) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan = JoinPlan();
  EXPECT_TRUE(plan.Validate(catalog).ok());
}

TEST(PlanTest, ValidateRejectsUnknownTable) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeScan("nope"));
  EXPECT_FALSE(plan.Validate(catalog).ok());
}

TEST(PlanTest, ValidateRejectsEmptyPlan) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan;
  EXPECT_FALSE(plan.Validate(catalog).ok());
}

TEST(PlanTest, ValidateRejectsJoinWithoutColumns) {
  Catalog catalog = MakeCatalog();
  auto join = MakeJoin(MakeScan("a"), MakeScan("b"), "", "");
  QueryPlan plan(std::move(join));
  EXPECT_FALSE(plan.Validate(catalog).ok());
}

TEST(PlanTest, ValidateRejectsZeroNodeAnnotation) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan = JoinPlan();
  plan.MutableNodes()[0]->num_nodes = 0;
  EXPECT_FALSE(plan.Validate(catalog).ok());
}

TEST(PlanTest, CombineJoinsTwoPlans) {
  auto combined = Combine(QueryPlan(MakeScan("a")), QueryPlan(MakeScan("b")),
                          OperatorKind::kJoin, "id", "id");
  ASSERT_TRUE(combined.ok());
  EXPECT_EQ(combined->root()->kind, OperatorKind::kJoin);
  EXPECT_EQ(combined->BaseTables().size(), 2u);
}

TEST(PlanTest, CombineRejectsUnaryOperator) {
  auto combined = Combine(QueryPlan(MakeScan("a")), QueryPlan(MakeScan("b")),
                          OperatorKind::kFilter, "id", "id");
  EXPECT_FALSE(combined.ok());
}

TEST(PlanTest, CombineRejectsEmptyPlan) {
  auto combined = Combine(QueryPlan(), QueryPlan(MakeScan("b")),
                          OperatorKind::kJoin, "id", "id");
  EXPECT_FALSE(combined.ok());
}

TEST(CardinalityTest, ScanUsesTableRowCount) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeScan("a"));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 1000.0);
  EXPECT_DOUBLE_EQ(plan.root()->output_bytes, 1000.0 * 100.0);
}

TEST(CardinalityTest, ScanFractionPrunes) {
  Catalog catalog = MakeCatalog();
  auto scan = MakeScan("a");
  scan->scan_fraction = 0.25;
  QueryPlan plan(std::move(scan));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 250.0);
}

TEST(CardinalityTest, BadScanFractionRejected) {
  Catalog catalog = MakeCatalog();
  auto scan = MakeScan("a");
  scan->scan_fraction = 0.0;
  QueryPlan plan(std::move(scan));
  EXPECT_FALSE(EstimateCardinalities(catalog, &plan).ok());
}

TEST(CardinalityTest, NanScanFractionRejected) {
  Catalog catalog = MakeCatalog();
  auto scan = MakeScan("a");
  scan->scan_fraction = std::nan("");
  QueryPlan plan(std::move(scan));
  EXPECT_EQ(EstimateCardinalities(catalog, &plan).code(),
            StatusCode::kInvalidArgument);
}

TEST(CardinalityTest, NanFilterOverrideRejected) {
  Catalog catalog = MakeCatalog();
  for (const double bad : {std::nan(""), -0.1, 1.5}) {
    SCOPED_TRACE(bad);
    Predicate p{"tag", CompareOp::kEq, bad};
    QueryPlan plan(MakeFilter(MakeScan("b"), {p}));
    EXPECT_EQ(EstimateCardinalities(catalog, &plan).code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(CardinalityTest, JoinOverrideOutsideUnitIntervalRejected) {
  Catalog catalog = MakeCatalog();
  for (const double bad :
       {std::nan(""), -0.5, 7.0, std::numeric_limits<double>::infinity()}) {
    SCOPED_TRACE(bad);
    auto join = MakeJoin(MakeScan("a"), MakeScan("b"), "id", "id");
    join->join_selectivity_override = bad;
    QueryPlan plan(std::move(join));
    EXPECT_EQ(EstimateCardinalities(catalog, &plan).code(),
              StatusCode::kInvalidArgument);
  }
  for (const double edge : {0.0, 1.0}) {
    auto join = MakeJoin(MakeScan("a"), MakeScan("b"), "id", "id");
    join->join_selectivity_override = edge;
    QueryPlan plan(std::move(join));
    ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok()) << edge;
    EXPECT_EQ(plan.root()->output_rows, 1000.0 * 100.0 * edge);
  }
}

TEST(CardinalityTest, FilterAppliesSelectivity) {
  Catalog catalog = MakeCatalog();
  Predicate p{"tag", CompareOp::kEq, std::nullopt};  // NDV 10 -> 0.1
  QueryPlan plan(MakeFilter(MakeScan("b"), {p}));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 10.0);
}

TEST(CardinalityTest, FilterOverrideSelectivity) {
  Catalog catalog = MakeCatalog();
  Predicate p{"tag", CompareOp::kEq, 0.5};
  QueryPlan plan(MakeFilter(MakeScan("b"), {p}));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 50.0);
}

TEST(CardinalityTest, JoinUsesOneOverMaxNdv) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan = JoinPlan();
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  // |a| * |b| / max(ndv_a.id, ndv_b.id) = 1000 * 100 / 1000 = 100.
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 100.0);
}

TEST(CardinalityTest, JoinSelectivityOverride) {
  Catalog catalog = MakeCatalog();
  auto join = MakeJoin(MakeScan("a"), MakeScan("b"), "id", "id");
  join->join_selectivity_override = 0.01;
  QueryPlan plan(std::move(join));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 1000.0);
}

TEST(CardinalityTest, ProjectNarrowsWidth) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeProject(MakeScan("a"), {"id"}));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 1000.0);
  EXPECT_DOUBLE_EQ(plan.root()->output_bytes, 1000.0 * 8.0);
}

TEST(CardinalityTest, ProjectUnknownColumnFails) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeProject(MakeScan("a"), {"ghost"}));
  EXPECT_FALSE(EstimateCardinalities(catalog, &plan).ok());
}

TEST(CardinalityTest, AggregateCapsAtGroups) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeAggregate(MakeScan("a"), 7));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 7.0);
}

TEST(CardinalityTest, AggregateCappedByInputRows) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeAggregate(MakeScan("b"), 1000000));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 100.0);
}

TEST(CardinalityTest, SortPreservesCardinality) {
  Catalog catalog = MakeCatalog();
  QueryPlan plan(MakeSort(MakeScan("b")));
  ASSERT_TRUE(EstimateCardinalities(catalog, &plan).ok());
  EXPECT_DOUBLE_EQ(plan.root()->output_rows, 100.0);
}

QueryPlan RichPlan() {
  auto filter = MakeFilter(MakeScan("b"), {{"tag", CompareOp::kEq, 0.5}});
  auto join = MakeJoin(MakeScan("a"), std::move(filter), "id", "id");
  auto project = MakeProject(std::move(join), {"payload", "tag"});
  return QueryPlan(MakeAggregate(std::move(project), 4));
}

TEST(PlanIdentityTest, CopiesAreIdenticalAndHashEqual) {
  const QueryPlan plan = RichPlan();
  const QueryPlan copy = plan;
  EXPECT_TRUE(IdenticalPlans(plan, copy));
  EXPECT_EQ(HashPlan(plan), HashPlan(copy));
  EXPECT_TRUE(IdenticalPlans(QueryPlan(), QueryPlan()));
  EXPECT_FALSE(IdenticalPlans(plan, QueryPlan()));
  EXPECT_FALSE(IdenticalPlans(QueryPlan(), plan));
}

PlanNode* NodeOf(QueryPlan* plan, OperatorKind kind) {
  for (PlanNode* node : plan->MutableNodes()) {
    if (node->kind == kind) return node;
  }
  return nullptr;
}

TEST(PlanIdentityTest, EveryFieldTells) {
  using K = OperatorKind;
  const std::pair<const char*, std::function<void(QueryPlan*)>> edits[] = {
      {"kind",
       [](QueryPlan* p) { NodeOf(p, K::kAggregate)->kind = K::kSort; }},
      {"table", [](QueryPlan* p) { NodeOf(p, K::kScan)->table = "b"; }},
      {"scan_fraction",
       [](QueryPlan* p) {
         NodeOf(p, K::kScan)->scan_fraction = std::nextafter(1.0, 0.0);
       }},
      {"predicate column",
       [](QueryPlan* p) {
         NodeOf(p, K::kFilter)->predicates[0].column = "id";
       }},
      {"predicate op",
       [](QueryPlan* p) {
         NodeOf(p, K::kFilter)->predicates[0].op = CompareOp::kNe;
       }},
      {"predicate override",
       [](QueryPlan* p) {
         NodeOf(p, K::kFilter)->predicates[0].selectivity_override.reset();
       }},
      {"predicate count",
       [](QueryPlan* p) {
         PlanNode* filter = NodeOf(p, K::kFilter);
         filter->predicates.push_back(filter->predicates[0]);
       }},
      {"columns",
       [](QueryPlan* p) { NodeOf(p, K::kProject)->columns.pop_back(); }},
      {"left_join_column",
       [](QueryPlan* p) { NodeOf(p, K::kJoin)->left_join_column = "payload"; }},
      {"right_join_column",
       [](QueryPlan* p) { NodeOf(p, K::kJoin)->right_join_column = "tag"; }},
      {"join_selectivity_override",
       [](QueryPlan* p) {
         NodeOf(p, K::kJoin)->join_selectivity_override = 0.0;
       }},
      {"num_groups",
       [](QueryPlan* p) { NodeOf(p, K::kAggregate)->num_groups = 5; }},
      {"site", [](QueryPlan* p) { NodeOf(p, K::kJoin)->site = 0; }},
      {"engine",
       [](QueryPlan* p) { NodeOf(p, K::kJoin)->engine = EngineKind::kHive; }},
      {"num_nodes", [](QueryPlan* p) { NodeOf(p, K::kJoin)->num_nodes = 2; }},
      {"output_rows",
       [](QueryPlan* p) { NodeOf(p, K::kJoin)->output_rows = -0.0; }},
      {"output_bytes",
       [](QueryPlan* p) { NodeOf(p, K::kJoin)->output_bytes = 1.0; }},
      {"child order",
       [](QueryPlan* p) {
         PlanNode* join = NodeOf(p, K::kJoin);
         std::swap(join->children[0], join->children[1]);
       }},
  };
  const QueryPlan plan = RichPlan();
  for (const auto& [field, edit] : edits) {
    SCOPED_TRACE(field);
    QueryPlan changed = plan;
    edit(&changed);
    EXPECT_FALSE(IdenticalPlans(plan, changed));
    EXPECT_FALSE(IdenticalPlans(changed, plan));
    EXPECT_NE(HashPlan(plan), HashPlan(changed));
  }
}

TEST(PlanIdentityTest, DoublesCompareBitwise) {
  auto nan_scan = [] {
    auto scan = MakeScan("a");
    scan->scan_fraction = std::nan("");
    return QueryPlan(std::move(scan));
  };
  EXPECT_TRUE(IdenticalPlans(nan_scan(), nan_scan()));
  EXPECT_EQ(HashPlan(nan_scan()), HashPlan(nan_scan()));
  auto zero = [](double rows) {
    auto scan = MakeScan("a");
    scan->output_rows = rows;
    return QueryPlan(std::move(scan));
  };
  EXPECT_FALSE(IdenticalPlans(zero(0.0), zero(-0.0)));
}

TEST(PlanToStringTest, RendersOperatorsAndAnnotations) {
  QueryPlan plan = JoinPlan();
  plan.MutableNodes()[0]->site = 0;
  plan.MutableNodes()[0]->engine = EngineKind::kHive;
  plan.MutableNodes()[0]->num_nodes = 4;
  const std::string s = plan.ToString();
  EXPECT_NE(s.find("Join"), std::string::npos);
  EXPECT_NE(s.find("Scan(a)"), std::string::npos);
  EXPECT_NE(s.find("@Hive"), std::string::npos);
  EXPECT_NE(s.find("x4"), std::string::npos);
}

TEST(OperatorKindTest, Names) {
  EXPECT_EQ(OperatorKindName(OperatorKind::kScan), "Scan");
  EXPECT_EQ(OperatorKindName(OperatorKind::kJoin), "Join");
  EXPECT_EQ(OperatorKindName(OperatorKind::kAggregate), "Aggregate");
}

TEST(PlanNodePoolTest, NodesFreedOnAnotherThreadAreReused) {
  // The served-path pattern: a worker builds plans, a client thread
  // destroys them. Freed slots must flow back to allocating threads
  // instead of piling up on the freeing thread while new slabs are carved.
  const std::optional<uint64_t> before = internal::PlanNodeSlabsCarved();
  if (!before.has_value()) GTEST_SKIP() << "PlanNode pool compiled out";
  constexpr size_t kRounds = 100;
  constexpr size_t kTreesPerRound = 400;  // 1,200 nodes: 5 slabs of 256
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<QueryPlan> trees;
    std::thread builder([&trees] {
      for (size_t i = 0; i < kTreesPerRound; ++i) trees.push_back(JoinPlan());
    });
    builder.join();
    trees.clear();  // every node is freed on this thread
  }
  // One round's nodes fit in 5 slabs, and each thread caches at most two
  // batches; without cross-thread reuse every round carves 5 more.
  EXPECT_LE(*internal::PlanNodeSlabsCarved() - *before, 16u);
}

}  // namespace
}  // namespace midas

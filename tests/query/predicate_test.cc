#include "query/predicate.h"

#include <cmath>

#include <gtest/gtest.h>

namespace midas {
namespace {

TableDef MakeTable() {
  TableDef t;
  t.name = "t";
  t.row_count = 1000;
  t.columns = {{"status", ColumnType::kString, 1.0, 4},
               {"amount", ColumnType::kDouble, 8.0, 500}};
  return t;
}

TEST(SelectivityTest, EqualityUsesNdv) {
  Predicate p{"status", CompareOp::kEq, std::nullopt};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 0.25);
}

TEST(SelectivityTest, InequalityIsComplement) {
  Predicate p{"status", CompareOp::kNe, std::nullopt};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 0.75);
}

TEST(SelectivityTest, RangeDefaultsToOneThird) {
  for (CompareOp op :
       {CompareOp::kLt, CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    Predicate p{"amount", op, std::nullopt};
    EXPECT_NEAR(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 1.0 / 3.0,
                1e-12);
  }
}

TEST(SelectivityTest, BetweenIsQuarter) {
  Predicate p{"amount", CompareOp::kBetween, std::nullopt};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 0.25);
}

TEST(SelectivityTest, LikeIsTenth) {
  Predicate p{"status", CompareOp::kLike, std::nullopt};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 0.1);
}

TEST(SelectivityTest, OverrideWins) {
  Predicate p{"status", CompareOp::kEq, 0.007};
  EXPECT_DOUBLE_EQ(EstimateSelectivity(MakeTable(), p).ValueOrDie(), 0.007);
}

TEST(SelectivityTest, OverrideOutsideUnitIntervalRejected) {
  Predicate p{"status", CompareOp::kEq, 1.5};
  EXPECT_FALSE(EstimateSelectivity(MakeTable(), p).ok());
  p.selectivity_override = -0.1;
  EXPECT_FALSE(EstimateSelectivity(MakeTable(), p).ok());
}

TEST(SelectivityTest, NanOverrideRejected) {
  Predicate p{"status", CompareOp::kEq, std::nan("")};
  EXPECT_EQ(EstimateSelectivity(MakeTable(), p).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SelectivityTest, UnknownColumnFails) {
  Predicate p{"nope", CompareOp::kEq, std::nullopt};
  EXPECT_FALSE(EstimateSelectivity(MakeTable(), p).ok());
}

TEST(SelectivityTest, ConjunctionMultiplies) {
  std::vector<Predicate> ps = {{"status", CompareOp::kEq, std::nullopt},
                               {"amount", CompareOp::kLt, std::nullopt}};
  EXPECT_NEAR(
      EstimateConjunctionSelectivity(MakeTable(), ps).ValueOrDie(),
      0.25 / 3.0, 1e-12);
}

TEST(SelectivityTest, EmptyConjunctionIsOne) {
  EXPECT_DOUBLE_EQ(
      EstimateConjunctionSelectivity(MakeTable(), {}).ValueOrDie(), 1.0);
}

TEST(CompareOpTest, Names) {
  EXPECT_EQ(CompareOpName(CompareOp::kEq), "=");
  EXPECT_EQ(CompareOpName(CompareOp::kBetween), "BETWEEN");
  EXPECT_EQ(CompareOpName(CompareOp::kLike), "LIKE");
}

}  // namespace
}  // namespace midas

#include "optimizer/best_in_pareto.h"

#include <limits>

#include <gtest/gtest.h>

namespace midas {
namespace {

// A small Pareto set: (seconds, dollars).
const std::vector<Vector> kPareto = {
    {10.0, 0.08}, {20.0, 0.04}, {40.0, 0.02}, {80.0, 0.01}};

TEST(BestInParetoTest, UnconstrainedUsesWeightedSum) {
  QueryPolicy policy;
  policy.weights = {1.0, 0.0};  // time only
  EXPECT_EQ(BestInPareto(kPareto, policy).ValueOrDie(), 0u);
  policy.weights = {0.0, 1.0};  // money only
  EXPECT_EQ(BestInPareto(kPareto, policy).ValueOrDie(), 3u);
}

TEST(BestInParetoTest, ConstraintsFilterFirst) {
  QueryPolicy policy;
  policy.weights = {1.0, 0.0};  // prefers the fastest...
  policy.constraints = {100.0, 0.03};  // ...but must cost <= $0.03
  // Feasible: indices 2 and 3; fastest of them is 2.
  EXPECT_EQ(BestInPareto(kPareto, policy).ValueOrDie(), 2u);
}

TEST(BestInParetoTest, TimeConstraintOnly) {
  QueryPolicy policy;
  policy.weights = {0.0, 1.0};            // cheapest...
  policy.constraints = {30.0, 1000.0};    // ...finishing within 30 s
  EXPECT_EQ(BestInPareto(kPareto, policy).ValueOrDie(), 1u);
}

TEST(BestInParetoTest, InfeasibleConstraintsFallBackToWholeSet) {
  // Algorithm 2 lines 5-6: when PB is empty, rank all of P.
  QueryPolicy policy;
  policy.weights = {1.0, 1.0};
  policy.constraints = {1.0, 0.001};  // nothing qualifies
  auto chosen = BestInPareto(kPareto, policy);
  ASSERT_TRUE(chosen.ok());
  EXPECT_LT(*chosen, kPareto.size());
}

TEST(BestInParetoTest, PartialConstraintVectorAllowed) {
  QueryPolicy policy;
  policy.weights = {0.0, 1.0};
  policy.constraints = {30.0};  // constrain only the first metric
  EXPECT_EQ(BestInPareto(kPareto, policy).ValueOrDie(), 1u);
}

TEST(BestInParetoTest, SingletonSet) {
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  EXPECT_EQ(BestInPareto({{3.0, 3.0}}, policy).ValueOrDie(), 0u);
}

TEST(BestInParetoTest, RejectsEmptySet) {
  QueryPolicy policy;
  policy.weights = {1.0, 1.0};
  EXPECT_FALSE(BestInPareto({}, policy).ok());
}

TEST(BestInParetoTest, RejectsWeightArityMismatch) {
  QueryPolicy policy;
  policy.weights = {1.0};
  EXPECT_FALSE(BestInPareto(kPareto, policy).ok());
}

TEST(BestInParetoTest, RejectsTooManyConstraints) {
  QueryPolicy policy;
  policy.weights = {1.0, 1.0};
  policy.constraints = {1.0, 1.0, 1.0};
  EXPECT_FALSE(BestInPareto(kPareto, policy).ok());
}

TEST(BestInParetoTest, RejectsNonFiniteWeightsAndNanConstraints) {
  // On {(10, 1), (5, 2), (1, 9)} an infinite weight picked the slowest
  // plan, and a NaN constraint excluded nothing (cost > NaN is false).
  const std::vector<Vector> front = {{10, 1}, {5, 2}, {1, 9}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  QueryPolicy infinite_weight;
  infinite_weight.weights = {inf, 1.0};
  EXPECT_EQ(BestInPareto(front, infinite_weight).status().code(),
            StatusCode::kInvalidArgument);
  QueryPolicy nan_weight;
  nan_weight.weights = {1.0, nan};
  EXPECT_EQ(BestInPareto(front, nan_weight).status().code(),
            StatusCode::kInvalidArgument);
  QueryPolicy nan_constraint;
  nan_constraint.weights = {0.5, 0.5};
  nan_constraint.constraints = {nan, 5.0};
  EXPECT_EQ(BestInPareto(front, nan_constraint).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ValidatePolicy(nan_constraint).code(),
            StatusCode::kInvalidArgument);
  // An infinite constraint means "no limit" and stays valid.
  QueryPolicy unbounded;
  unbounded.weights = {1.0, 0.0};
  unbounded.constraints = {inf, inf};
  ASSERT_TRUE(ValidatePolicy(unbounded).ok());
  EXPECT_EQ(BestInPareto(front, unbounded).ValueOrDie(), 2u);
}

TEST(BestInParetoTest, RejectsRaggedCosts) {
  QueryPolicy policy;
  policy.weights = {1.0, 1.0};
  EXPECT_FALSE(BestInPareto({{1.0, 2.0}, {1.0}}, policy).ok());
}

// Property: the choice always satisfies the constraints when any plan does.
class BestInParetoConstraintTest
    : public ::testing::TestWithParam<double> {};

TEST_P(BestInParetoConstraintTest, ChoiceIsFeasibleWhenPossible) {
  const double budget = GetParam();
  QueryPolicy policy;
  policy.weights = {1.0, 0.0};
  policy.constraints = {1e9, budget};
  bool any_feasible = false;
  for (const Vector& c : kPareto) {
    if (c[1] <= budget) any_feasible = true;
  }
  auto chosen = BestInPareto(kPareto, policy);
  ASSERT_TRUE(chosen.ok());
  if (any_feasible) {
    EXPECT_LE(kPareto[*chosen][1], budget);
  }
}

INSTANTIATE_TEST_SUITE_P(Budgets, BestInParetoConstraintTest,
                         ::testing::Values(0.005, 0.015, 0.03, 0.05, 0.1));

}  // namespace
}  // namespace midas

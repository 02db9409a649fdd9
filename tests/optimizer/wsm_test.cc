#include "optimizer/wsm.h"

#include <limits>

#include <gtest/gtest.h>

namespace midas {
namespace {

TEST(WeightedSumTest, ComputesDotProduct) {
  EXPECT_DOUBLE_EQ(WeightedSum({2, 4}, {0.5, 0.25}).ValueOrDie(), 2.0);
}

TEST(WeightedSumTest, RejectsArityMismatch) {
  EXPECT_FALSE(WeightedSum({1, 2}, {1}).ok());
}

TEST(WeightedSumTest, RejectsNegativeWeights) {
  EXPECT_FALSE(WeightedSum({1, 2}, {-1, 2}).ok());
}

TEST(WeightedSumTest, RejectsAllZeroWeights) {
  EXPECT_FALSE(WeightedSum({1, 2}, {0, 0}).ok());
}

TEST(WsmSelectTest, PicksDominantCandidate) {
  const std::vector<Vector> costs = {{10, 10}, {1, 1}, {5, 5}};
  EXPECT_EQ(WsmSelect(costs, {0.5, 0.5}).ValueOrDie(), 1u);
}

TEST(WsmSelectTest, WeightsSteerTheChoice) {
  // Candidate 0 is fast but expensive; candidate 1 cheap but slow.
  const std::vector<Vector> costs = {{1.0, 100.0}, {100.0, 1.0}};
  EXPECT_EQ(WsmSelect(costs, {1.0, 0.0}).ValueOrDie(), 0u);
  EXPECT_EQ(WsmSelect(costs, {0.0, 1.0}).ValueOrDie(), 1u);
}

TEST(WsmSelectTest, NormalisationMakesMetricsComparable) {
  // Metric 1 has a huge absolute scale; normalisation must stop it from
  // drowning metric 0 under equal weights.
  const std::vector<Vector> costs = {{1.0, 2e6}, {2.0, 1e6}};
  // After min-max normalisation: {0, 1} vs {1, 0} — tie broken by order;
  // with weights favouring metric 0 slightly, candidate 0 wins.
  EXPECT_EQ(WsmSelect(costs, {0.6, 0.4}).ValueOrDie(), 0u);
}

TEST(WsmSelectTest, ZeroRangeMetricIgnored) {
  const std::vector<Vector> costs = {{5.0, 7.0}, {3.0, 7.0}};
  EXPECT_EQ(WsmSelect(costs, {0.5, 0.5}).ValueOrDie(), 1u);
}

TEST(WsmSelectTest, RejectsEmptyAndRagged) {
  EXPECT_FALSE(WsmSelect({}, {1.0}).ok());
  EXPECT_FALSE(WsmSelect({{1, 2}, {1}}, {0.5, 0.5}).ok());
  EXPECT_FALSE(WsmSelect({{1, 2}}, {0.5}).ok());
}

TEST(WsmSelectTest, RejectsNonFiniteWeights) {
  // NaN fails both the sign and the sum check, and +Inf passes both: each
  // would otherwise pick the slowest plan here without an error.
  const std::vector<Vector> costs = {{10, 1}, {5, 2}, {1, 9}};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const Vector& weights : {Vector{1.0, nan}, Vector{inf, 1.0},
                                Vector{-inf, 1.0}}) {
    EXPECT_EQ(WsmSelect(costs, weights).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(ValidateWeights(weights).code(), StatusCode::kInvalidArgument);
  }
}

TEST(WsmGeneticOptimizerTest, FindsWeightedOptimumOnSchaffer) {
  // min 0.5 x² + 0.5 (x-2)² has optimum at x = 1.
  WsmGaOptions options;
  options.population_size = 60;
  options.generations = 60;
  WsmGeneticOptimizer optimizer(options);
  auto result = optimizer.Optimize(Schaffer(), {0.5, 0.5});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->variables[0], 1.0, 0.1);
}

TEST(WsmGeneticOptimizerTest, ExtremeWeightsReachEndpoints) {
  WsmGaOptions options;
  options.population_size = 60;
  options.generations = 60;
  WsmGeneticOptimizer optimizer(options);
  auto fast = optimizer.Optimize(Schaffer(), {1.0, 0.0});
  ASSERT_TRUE(fast.ok());
  EXPECT_NEAR(fast->variables[0], 0.0, 0.1);
  auto cheap = optimizer.Optimize(Schaffer(), {0.0, 1.0});
  ASSERT_TRUE(cheap.ok());
  EXPECT_NEAR(cheap->variables[0], 2.0, 0.1);
}

TEST(WsmGeneticOptimizerTest, MissesNonConvexFrontInterior) {
  // §2.6: on the non-convex ZDT2 front the weighted-sum optimum always sits
  // at an extreme, never strictly inside — the motivation for Pareto
  // methods. Sweep several weights and check no interior solution appears.
  WsmGaOptions options;
  options.population_size = 80;
  options.generations = 120;
  WsmGeneticOptimizer optimizer(options);
  for (double w : {0.2, 0.4, 0.6, 0.8}) {
    auto result = optimizer.Optimize(Zdt2(6), {w, 1.0 - w});
    ASSERT_TRUE(result.ok());
    const double f1 = result->objectives[0];
    EXPECT_TRUE(f1 < 0.15 || f1 > 0.85)
        << "weight " << w << " produced interior point f1=" << f1;
  }
}

TEST(WsmGeneticOptimizerTest, RejectsBadWeights) {
  WsmGeneticOptimizer optimizer;
  EXPECT_FALSE(optimizer.Optimize(Schaffer(), {1.0}).ok());
  EXPECT_FALSE(optimizer.Optimize(Schaffer(), {-1.0, 2.0}).ok());
}

TEST(WsmGeneticOptimizerTest, ScalarFitnessMatchesObjectives) {
  WsmGaOptions options;
  options.population_size = 30;
  options.generations = 20;
  WsmGeneticOptimizer optimizer(options);
  auto result = optimizer.Optimize(Schaffer(), {0.3, 0.7});
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result->scalar_fitness,
              0.3 * result->objectives[0] + 0.7 * result->objectives[1],
              1e-9);
}

}  // namespace
}  // namespace midas

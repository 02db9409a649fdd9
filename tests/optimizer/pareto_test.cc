#include "optimizer/pareto.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

TEST(DominanceTest, WeakDominanceAllowsEquality) {
  EXPECT_TRUE(WeaklyDominates({1, 2}, {1, 2}));
  EXPECT_TRUE(WeaklyDominates({1, 2}, {2, 2}));
  EXPECT_FALSE(WeaklyDominates({3, 1}, {2, 2}));
}

TEST(DominanceTest, StandardDominanceNeedsStrictSomewhere) {
  EXPECT_FALSE(Dominates({1, 2}, {1, 2}));
  EXPECT_TRUE(Dominates({1, 1}, {1, 2}));
  EXPECT_TRUE(Dominates({0, 1}, {1, 2}));
  EXPECT_FALSE(Dominates({0, 3}, {1, 2}));
}

TEST(DominanceTest, StrictDominanceEq3) {
  EXPECT_TRUE(StrictlyDominates({0, 1}, {1, 2}));
  EXPECT_FALSE(StrictlyDominates({1, 1}, {1, 2}));  // tie on metric 0
}

TEST(ParetoFrontTest, ExtractsNonDominatedSet) {
  const std::vector<Vector> costs = {
      {1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}};
  const auto front = ParetoFrontIndices(costs);
  EXPECT_EQ(front, (std::vector<size_t>{0, 1, 2}));
}

TEST(ParetoFrontTest, SinglePointIsFront) {
  EXPECT_EQ(ParetoFrontIndices({{1, 1}}).size(), 1u);
}

TEST(ParetoFrontTest, DuplicatesAllSurvive) {
  const auto front = ParetoFrontIndices({{1, 1}, {1, 1}, {2, 2}});
  EXPECT_EQ(front, (std::vector<size_t>{0, 1}));
}

TEST(ParetoFrontTest, EmptyInput) {
  EXPECT_TRUE(ParetoFrontIndices({}).empty());
}

TEST(FastNonDominatedSortTest, LayersByDomination) {
  const std::vector<Vector> costs = {
      {1, 1},  // front 0
      {2, 2},  // front 2: dominated by {1,1} and {1,2}
      {3, 3},  // front 3
      {1, 2},  // front 1: dominated only by {1,1}
  };
  const auto fronts = FastNonDominatedSort(costs);
  ASSERT_EQ(fronts.size(), 4u);
  EXPECT_EQ(fronts[0], (std::vector<size_t>{0}));
  EXPECT_EQ(fronts[1], (std::vector<size_t>{3}));
  EXPECT_EQ(fronts[2], (std::vector<size_t>{1}));
  EXPECT_EQ(fronts[3], (std::vector<size_t>{2}));
}

TEST(FastNonDominatedSortTest, AgreesWithParetoFront) {
  const std::vector<Vector> costs = {
      {5, 1}, {4, 2}, {3, 3}, {2, 4}, {1, 5}, {5, 5}, {4, 4}};
  const auto fronts = FastNonDominatedSort(costs);
  ASSERT_FALSE(fronts.empty());
  std::vector<size_t> sorted_front = fronts[0];
  std::sort(sorted_front.begin(), sorted_front.end());
  EXPECT_EQ(sorted_front, ParetoFrontIndices(costs));
}

TEST(FastNonDominatedSortTest, EveryPointAssignedExactlyOnce) {
  const std::vector<Vector> costs = {
      {1, 9}, {9, 1}, {5, 5}, {2, 8}, {8, 2}, {6, 6}, {3, 3}};
  const auto fronts = FastNonDominatedSort(costs);
  size_t total = 0;
  for (const auto& f : fronts) total += f.size();
  EXPECT_EQ(total, costs.size());
}

// --- Randomized equivalence sweeps against the naive oracles ---

// Costs on a coarse integer grid: small grids force duplicate vectors and
// per-metric ties, the cases where sweep/divide-and-conquer bugs hide.
std::vector<Vector> RandomCosts(Rng* rng, size_t n, size_t arity,
                                int64_t grid) {
  std::vector<Vector> costs(n, Vector(arity));
  for (Vector& c : costs) {
    for (double& v : c) v = static_cast<double>(rng->UniformInt(0, grid));
  }
  return costs;
}

// Pareto front membership straight from the definition of dominance.
std::vector<size_t> FrontByDefinition(const std::vector<Vector>& costs) {
  std::vector<size_t> front;
  for (size_t i = 0; i < costs.size(); ++i) {
    bool dominated = false;
    for (size_t j = 0; j < costs.size() && !dominated; ++j) {
      dominated = j != i && Dominates(costs[j], costs[i]);
    }
    if (!dominated) front.push_back(i);
  }
  return front;
}

constexpr size_t kSweepSizes[] = {0, 1, 2, 3, 7, 33, 128};

TEST(FastNonDominatedSortTest, MatchesNaiveOracleRandomized) {
  Rng rng(20260806);
  for (size_t n : kSweepSizes) {
    for (size_t arity = 1; arity <= 5; ++arity) {
      for (int64_t grid : {int64_t{2}, int64_t{5}, int64_t{50}}) {
        const std::vector<Vector> costs = RandomCosts(&rng, n, arity, grid);
        EXPECT_EQ(FastNonDominatedSort(costs), NonDominatedSortNaive(costs))
            << "n=" << n << " arity=" << arity << " grid=" << grid;
      }
    }
  }
}

TEST(FastNonDominatedSortTest, BorrowedOverloadMatchesOwned) {
  Rng rng(7);
  const std::vector<Vector> costs = RandomCosts(&rng, 64, 3, 4);
  std::vector<const Vector*> borrowed;
  borrowed.reserve(costs.size());
  for (const Vector& c : costs) borrowed.push_back(&c);
  EXPECT_EQ(FastNonDominatedSort(borrowed), FastNonDominatedSort(costs));
  EXPECT_EQ(NonDominatedSortNaive(borrowed), NonDominatedSortNaive(costs));
}

TEST(FastNonDominatedSortTest, AllDuplicatesFormOneFront) {
  const std::vector<Vector> costs(9, Vector{2.0, 2.0, 2.0});
  const auto fronts = FastNonDominatedSort(costs);
  ASSERT_EQ(fronts.size(), 1u);
  std::vector<size_t> all(costs.size());
  std::iota(all.begin(), all.end(), size_t{0});
  EXPECT_EQ(fronts[0], all);
}

TEST(ParetoFrontTest, FastPathsMatchDefinitionRandomized) {
  // Exercises the 2-objective lex sweep, the 3-objective Kung recursion,
  // and the >= 4 objective parallel scan against the brute-force scan.
  Rng rng(31);
  for (size_t n : kSweepSizes) {
    for (size_t arity = 1; arity <= 5; ++arity) {
      for (int64_t grid : {int64_t{2}, int64_t{6}}) {
        const std::vector<Vector> costs = RandomCosts(&rng, n, arity, grid);
        const std::vector<size_t> expected = FrontByDefinition(costs);
        for (size_t threads : {size_t{1}, size_t{3}}) {
          EXPECT_EQ(ParetoFrontIndices(costs, threads), expected)
              << "n=" << n << " arity=" << arity << " grid=" << grid
              << " threads=" << threads;
        }
      }
    }
  }
}

TEST(ParetoFrontTest, DistinctFrontRowsMatchFrontPlusFirstRepresentatives) {
  // The online filter must equal ParetoFrontIndices with duplicate cost
  // vectors reduced to their first occurrence, on duplicate-heavy grids.
  Rng rng(37);
  for (size_t n : kSweepSizes) {
    for (size_t arity = 1; arity <= 4; ++arity) {
      for (int64_t grid : {int64_t{2}, int64_t{6}}) {
        const std::vector<Vector> costs = RandomCosts(&rng, n, arity, grid);
        std::vector<size_t> expected;
        std::vector<Vector> seen;
        for (size_t i : ParetoFrontIndices(costs)) {
          if (std::find(seen.begin(), seen.end(), costs[i]) != seen.end()) {
            continue;
          }
          seen.push_back(costs[i]);
          expected.push_back(i);
        }
        Matrix rows(costs.size(), arity);
        for (size_t i = 0; i < costs.size(); ++i) rows.SetRow(i, costs[i]);
        EXPECT_EQ(DistinctParetoFrontRows(rows), expected)
            << "n=" << n << " arity=" << arity << " grid=" << grid;
      }
    }
  }
  EXPECT_TRUE(DistinctParetoFrontRows(Matrix(0, 2)).empty());

  // A large anti-correlated front (the time/money trade-off of many VM
  // counts) in shuffled order, with duplicates and dominated points.
  std::vector<Vector> costs;
  for (int i = 0; i < 600; ++i) {
    costs.push_back({static_cast<double>(i), static_cast<double>(600 - i)});
    costs.push_back({i + 0.5, 601.0 - i});  // dominated by the point above
    if (i % 7 == 0) costs.push_back(costs[costs.size() - 2]);  // duplicate
  }
  for (size_t i = costs.size(); i > 1; --i) {
    std::swap(costs[i - 1], costs[rng.Index(i)]);
  }
  std::vector<size_t> expected;
  std::vector<Vector> seen;
  for (size_t i : ParetoFrontIndices(costs)) {
    if (std::find(seen.begin(), seen.end(), costs[i]) != seen.end()) continue;
    seen.push_back(costs[i]);
    expected.push_back(i);
  }
  ASSERT_EQ(expected.size(), 600u);
  Matrix rows(costs.size(), 2);
  for (size_t i = 0; i < costs.size(); ++i) rows.SetRow(i, costs[i]);
  EXPECT_EQ(DistinctParetoFrontRows(rows), expected);
}

TEST(CrowdingDistanceTest, BoundaryPointsAreInfinite) {
  const std::vector<Vector> costs = {{1, 4}, {2, 3}, {3, 2}, {4, 1}};
  const std::vector<size_t> front = {0, 1, 2, 3};
  const auto d = CrowdingDistances(costs, front);
  EXPECT_TRUE(std::isinf(d[0]));
  EXPECT_TRUE(std::isinf(d[3]));
  EXPECT_FALSE(std::isinf(d[1]));
  EXPECT_FALSE(std::isinf(d[2]));
}

TEST(CrowdingDistanceTest, DenserPointsGetSmallerDistance) {
  // Point 1 is crowded between 0 and 2; point 3 is isolated-ish.
  const std::vector<Vector> costs = {{0, 10}, {1, 9}, {2, 8}, {10, 0}};
  const std::vector<size_t> front = {0, 1, 2, 3};
  const auto d = CrowdingDistances(costs, front);
  EXPECT_LT(d[1], d[2]);
}

TEST(CrowdingDistanceTest, EmptyFront) {
  EXPECT_TRUE(CrowdingDistances(std::vector<Vector>{}, {}).empty());
}

// --- Parametric definitions (Eqs. 2-4) over a sampled parameter space ---

ParametricCost LinearPlan(double slope, double intercept) {
  return [slope, intercept](const Vector& x) -> Vector {
    return {slope * x[0] + intercept, intercept};
  };
}

TEST(DomRegionTest, FindsWhereOneplanWins) {
  // p1 = x, p2 = 2 - x on metric 0 (metric 1 ties): p1 wins for x <= 1.
  auto p1 = LinearPlan(1.0, 0.0);
  auto p2 = [](const Vector& x) -> Vector { return {2.0 - x[0], 0.0}; };
  std::vector<Vector> samples;
  for (double x = 0.0; x <= 2.0; x += 0.5) samples.push_back({x});
  auto region = DomRegion(p1, p2, samples);
  ASSERT_TRUE(region.ok());
  // x in {0, 0.5, 1.0} -> indices 0, 1, 2.
  EXPECT_EQ(*region, (std::vector<size_t>{0, 1, 2}));
}

TEST(StriDomRegionTest, ExcludesTies) {
  auto p1 = [](const Vector&) -> Vector { return {1.0, 1.0}; };
  auto p2 = [](const Vector& x) -> Vector {
    return {x[0], 2.0};  // metric 0 ties p1 at x = 1
  };
  std::vector<Vector> samples = {{0.5}, {1.0}, {2.0}};
  auto region = StriDomRegion(p2, p1, samples);
  ASSERT_TRUE(region.ok());
  // p2 strictly dominates p1 only where x < 1 on metric 0? metric 1 is
  // worse everywhere (2 > 1), so never.
  EXPECT_TRUE(region->empty());
}

TEST(ParetoRegionTest, PlanKeepsRegionWhereUnbeaten) {
  // plan: cost {x, 1-x}; rival: {0.5, 0.5}. Rival strictly dominates plan
  // where x > 0.5 and 1-x > 0.5 — impossible simultaneously, so the plan's
  // Pareto region is the whole space.
  auto plan = [](const Vector& x) -> Vector { return {x[0], 1.0 - x[0]}; };
  auto rival = [](const Vector&) -> Vector { return {0.5, 0.5}; };
  std::vector<Vector> samples = {{0.0}, {0.25}, {0.5}, {0.75}, {1.0}};
  auto region = ParetoRegion(plan, {rival}, samples);
  ASSERT_TRUE(region.ok());
  EXPECT_EQ(region->size(), samples.size());
}

TEST(ParetoRegionTest, DominatedEverywhereIsEmpty) {
  auto plan = [](const Vector&) -> Vector { return {2.0, 2.0}; };
  auto rival = [](const Vector&) -> Vector { return {1.0, 1.0}; };
  std::vector<Vector> samples = {{0.0}, {1.0}};
  auto region = ParetoRegion(plan, {rival}, samples);
  ASSERT_TRUE(region.ok());
  EXPECT_TRUE(region->empty());
}

TEST(ParametricTest, NullCostFunctionRejected) {
  std::vector<Vector> samples = {{0.0}};
  EXPECT_FALSE(DomRegion(nullptr, LinearPlan(1, 0), samples).ok());
  EXPECT_FALSE(StriDomRegion(LinearPlan(1, 0), nullptr, samples).ok());
  EXPECT_FALSE(ParetoRegion(nullptr, {}, samples).ok());
  EXPECT_FALSE(ParetoRegion(LinearPlan(1, 0), {nullptr}, samples).ok());
}

}  // namespace
}  // namespace midas

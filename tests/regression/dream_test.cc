#include "regression/dream.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

// History with a clean linear relationship: c0 = 1 + 2 x1 + 3 x2,
// c1 = 10 - x1.
TrainingSet LinearHistory(size_t n, double noise_sigma = 0.0,
                          uint64_t seed = 9) {
  TrainingSet set({"x1", "x2"}, {"time", "money"});
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double x1 = rng.Uniform(0, 5);
    const double x2 = rng.Uniform(0, 5);
    const double e0 = noise_sigma > 0 ? rng.Gaussian(0, noise_sigma) : 0.0;
    const double e1 = noise_sigma > 0 ? rng.Gaussian(0, noise_sigma) : 0.0;
    set.Add({x1, x2}, {1 + 2 * x1 + 3 * x2 + e0, 10 - x1 + e1}).CheckOK();
  }
  return set;
}

TEST(DreamTest, StopsAtMinimumWindowOnCleanData) {
  TrainingSet history = LinearHistory(50);
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  // L = 2 -> minimum window is 4; a perfect fit converges immediately.
  EXPECT_EQ(est->window_size, 4u);
  EXPECT_TRUE(est->converged);
  ASSERT_EQ(est->r_squared.size(), 2u);
  EXPECT_GE(est->r_squared[0], 0.8);
  EXPECT_GE(est->r_squared[1], 0.8);
}

TEST(DreamTest, PredictsBothMetrics) {
  TrainingSet history = LinearHistory(30);
  Dream dream;
  auto costs = dream.PredictCosts(history, {1.0, 1.0});
  ASSERT_TRUE(costs.ok());
  ASSERT_EQ(costs->size(), 2u);
  EXPECT_NEAR((*costs)[0], 6.0, 1e-6);
  EXPECT_NEAR((*costs)[1], 9.0, 1e-6);
}

TEST(DreamTest, RequiresAtLeastLPlusTwoObservations) {
  TrainingSet history = LinearHistory(3);  // < 4
  Dream dream;
  EXPECT_FALSE(dream.EstimateCostValue(history).ok());
}

TEST(DreamTest, ExactlyMinimumHistoryWorks) {
  TrainingSet history = LinearHistory(4);
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->window_size, 4u);
}

TEST(DreamTest, GrowsWindowWhenNoisy) {
  // Heavy noise keeps R² below the requirement at the minimum window.
  TrainingSet history = LinearHistory(60, /*noise_sigma=*/6.0);
  DreamOptions options;
  options.r2_require = 0.9;
  Dream dream(options);
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_GT(est->window_size, 4u);
}

TEST(DreamTest, HonorsMmaxCap) {
  TrainingSet history = LinearHistory(60, /*noise_sigma=*/50.0);
  DreamOptions options;
  options.r2_require = 0.999;  // unreachable
  options.m_max = 10;
  Dream dream(options);
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->window_size, 10u);
  EXPECT_FALSE(est->converged);
}

TEST(DreamTest, MmaxZeroMeansAllHistory) {
  TrainingSet history = LinearHistory(20, /*noise_sigma=*/50.0);
  DreamOptions options;
  options.r2_require = 0.9999;  // unreachable
  options.m_max = 0;
  Dream dream(options);
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_EQ(est->window_size, 20u);
}

TEST(DreamTest, UsesNewestObservations) {
  // Old regime c = x1; new regime c = 100 + x1. A fresh window must track
  // the new regime.
  TrainingSet set({"x1"}, {"c"});
  Rng rng(3);
  for (int i = 0; i < 40; ++i) {
    const double x = rng.Uniform(0, 10);
    set.Add({x}, {x}).CheckOK();
  }
  for (int i = 0; i < 10; ++i) {
    const double x = rng.Uniform(0, 10);
    set.Add({x}, {100.0 + x}).CheckOK();
  }
  Dream dream;
  auto costs = dream.PredictCosts(set, {5.0});
  ASSERT_TRUE(costs.ok());
  EXPECT_NEAR((*costs)[0], 105.0, 1.0);
}

TEST(DreamTest, AdjustedR2ModeGrowsFurther) {
  TrainingSet history = LinearHistory(60, /*noise_sigma=*/2.0, 17);
  DreamOptions plain;
  plain.use_adjusted_r2 = false;
  DreamOptions adjusted;
  adjusted.use_adjusted_r2 = true;
  auto est_plain = Dream(plain).EstimateCostValue(history);
  auto est_adj = Dream(adjusted).EstimateCostValue(history);
  ASSERT_TRUE(est_plain.ok());
  ASSERT_TRUE(est_adj.ok());
  EXPECT_GE(est_adj->window_size, est_plain->window_size);
}

TEST(DreamTest, ReducedTrainingSetMatchesWindow) {
  TrainingSet history = LinearHistory(30);
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  auto reduced = dream.MakeReducedTrainingSet(history);
  ASSERT_TRUE(reduced.ok());
  EXPECT_EQ(reduced->size(), est->window_size);
  // Newest observation must be preserved verbatim.
  EXPECT_EQ(reduced->at(reduced->size() - 1).timestamp,
            history.at(history.size() - 1).timestamp);
}

TEST(DreamTest, EmptyMetricSetRejected) {
  TrainingSet set({"x1"}, {});
  set.Add({1.0}, {}).CheckOK();
  Dream dream;
  EXPECT_FALSE(dream.EstimateCostValue(set).ok());
}

TEST(DreamEstimateTest, PredictWithoutModelsFails) {
  DreamEstimate est;
  EXPECT_FALSE(est.Predict({1.0}).ok());
}

TEST(DreamEstimateTest, PredictBatchMatchesScalarExactly) {
  TrainingSet history = LinearHistory(30, /*noise_sigma=*/1.5, 31);
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  Rng rng(33);
  std::vector<Vector> queries;
  for (int i = 0; i < 29; ++i) {
    queries.push_back({rng.Uniform(-2, 7), rng.Uniform(-2, 7)});
  }
  Matrix x = Matrix::FromRows(queries).ValueOrDie();
  auto batch = est->PredictBatch(x);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->rows(), queries.size());
  ASSERT_EQ(batch->cols(), 2u);
  for (size_t i = 0; i < queries.size(); ++i) {
    const Vector scalar = est->Predict(queries[i]).ValueOrDie();
    for (size_t k = 0; k < scalar.size(); ++k) {
      SCOPED_TRACE("row " + std::to_string(i) + " metric " + std::to_string(k));
      EXPECT_EQ(batch->At(i, k), scalar[k]);
    }
  }
}

TEST(DreamEstimateTest, PredictBatchErrorPaths) {
  DreamEstimate empty;
  EXPECT_FALSE(empty.PredictBatch(Matrix({{1.0, 2.0}})).ok());
  TrainingSet history = LinearHistory(20);
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_FALSE(est->PredictBatch(Matrix({{1.0, 2.0, 3.0}})).ok());
  auto none = est->PredictBatch(Matrix(0, 2));
  ASSERT_TRUE(none.ok());
  EXPECT_EQ(none->rows(), 0u);
}

TEST(DreamTest, PredictCostsBatchMatchesPerQueryPredictCosts) {
  TrainingSet history = LinearHistory(40, /*noise_sigma=*/2.0, 37);
  Dream dream;
  Rng rng(41);
  std::vector<Vector> queries;
  for (int i = 0; i < 15; ++i) {
    queries.push_back({rng.Uniform(0, 5), rng.Uniform(0, 5)});
  }
  Matrix x = Matrix::FromRows(queries).ValueOrDie();
  auto batch = dream.PredictCostsBatch(history, x);
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->rows(), queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const Vector scalar = dream.PredictCosts(history, queries[i]).ValueOrDie();
    ASSERT_EQ(scalar.size(), batch->cols());
    for (size_t k = 0; k < scalar.size(); ++k) {
      SCOPED_TRACE("row " + std::to_string(i) + " metric " + std::to_string(k));
      EXPECT_EQ(batch->At(i, k), scalar[k]);
    }
  }
}

// --- Incremental vs batch engine equivalence -------------------------------
//
// The incremental engine must be a drop-in replacement for the seed's
// refit-from-scratch loop: same selected window, same convergence flag,
// and numerically matching models at the chosen window — rank-deficient
// windows included, which it fits itself with FitOls's pivot rule.

void ExpectEnginesAgree(const TrainingSet& history, DreamOptions options,
                        const char* label) {
  options.engine = DreamEngine::kIncremental;
  auto incremental = Dream(options).EstimateCostValue(history);
  options.engine = DreamEngine::kBatch;
  auto batch = Dream(options).EstimateCostValue(history);
  ASSERT_EQ(incremental.ok(), batch.ok()) << label;
  if (!incremental.ok()) return;
  EXPECT_EQ(incremental->window_size, batch->window_size) << label;
  EXPECT_EQ(incremental->converged, batch->converged) << label;
  ASSERT_EQ(incremental->models.size(), batch->models.size()) << label;
  for (size_t k = 0; k < batch->models.size(); ++k) {
    const Vector& got = incremental->models[k].coefficients();
    const Vector& want = batch->models[k].coefficients();
    ASSERT_EQ(got.size(), want.size()) << label;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_NEAR(got[j], want[j], 1e-8 * std::max(1.0, std::abs(want[j])))
          << label << " metric " << k << " coefficient " << j;
    }
    EXPECT_NEAR(incremental->r_squared[k], batch->r_squared[k], 1e-8)
        << label << " metric " << k;
  }
}

TEST(DreamEngineEquivalenceTest, RandomHistories) {
  Rng rng(211);
  for (int trial = 0; trial < 25; ++trial) {
    const size_t l = 1 + rng.Index(4);
    const size_t n = 1 + rng.Index(3);
    const size_t history_size = l + 2 + rng.Index(60);
    std::vector<std::string> features(l), metrics(n);
    for (size_t j = 0; j < l; ++j) features[j] = "x" + std::to_string(j);
    for (size_t k = 0; k < n; ++k) metrics[k] = "c" + std::to_string(k);
    TrainingSet history(std::move(features), std::move(metrics));
    std::vector<Vector> truth(n, Vector(l + 1, 0.0));
    for (size_t k = 0; k < n; ++k) {
      for (size_t j = 0; j <= l; ++j) truth[k][j] = rng.Uniform(-3, 3);
    }
    const double noise = rng.Uniform(0.1, 4.0);
    for (size_t i = 0; i < history_size; ++i) {
      Vector x(l);
      for (size_t j = 0; j < l; ++j) x[j] = rng.Uniform(0, 10);
      Vector costs(n);
      for (size_t k = 0; k < n; ++k) {
        double y = truth[k][0];
        for (size_t j = 0; j < l; ++j) y += truth[k][j + 1] * x[j];
        costs[k] = y + rng.Gaussian(0, noise);
      }
      history.Add(std::move(x), std::move(costs)).CheckOK();
    }
    DreamOptions options;
    options.r2_require = rng.Uniform(0.5, 0.99);
    options.m_max = rng.Bernoulli(0.5) ? 0 : l + 2 + rng.Index(40);
    options.use_adjusted_r2 = rng.Bernoulli(0.3);
    ExpectEnginesAgree(history, options, "random history");
  }
}

TEST(DreamEngineEquivalenceTest, ConstantFeatureFallsBackToBatch) {
  // x2 never varies: every window's design matrix is rank deficient, and
  // the incremental engine's rank-revealing fit must drop the same column
  // as the batch engine's.
  Rng rng(223);
  TrainingSet history({"x1", "x2"}, {"c"});
  for (int i = 0; i < 30; ++i) {
    const double x1 = rng.Uniform(0, 10);
    history.Add({x1, 7.0}, {2 + 3 * x1 + rng.Gaussian(0, 1.0)}).CheckOK();
  }
  DreamOptions options;
  options.r2_require = 0.95;
  ExpectEnginesAgree(history, options, "constant feature");
}

TEST(DreamEngineEquivalenceTest, CollinearFeaturesFallBackToBatch) {
  Rng rng(227);
  TrainingSet history({"x1", "x2", "x3"}, {"c", "d"});
  for (int i = 0; i < 40; ++i) {
    const double x1 = rng.Uniform(0, 5);
    const double x3 = rng.Uniform(0, 5);
    history
        .Add({x1, 2 * x1, x3},
             {1 + x1 + x3 + rng.Gaussian(0, 0.5),
              4 - x3 + rng.Gaussian(0, 0.5)})
        .CheckOK();
    }
  DreamOptions options;
  options.r2_require = 0.9;
  ExpectEnginesAgree(history, options, "collinear features");
}

TEST(DreamEngineEquivalenceTest, UnreachableRequirementGrowsToCap) {
  // Forces full window growth on both engines — the configuration the
  // perf benchmarks use — and checks they still land on the same cap.
  Rng rng(229);
  TrainingSet history({"x1"}, {"c"});
  for (int i = 0; i < 50; ++i) {
    const double x = rng.Uniform(0, 10);
    history.Add({x}, {x + rng.Gaussian(0, 2.0)}).CheckOK();
  }
  DreamOptions options;
  options.r2_require = 2.0;  // unreachable by construction
  options.m_max = 35;
  ExpectEnginesAgree(history, options, "unreachable R2");
}

// Property: the chosen window never exceeds min(m_max, history) and never
// undercuts L + 2.
class DreamWindowBoundsTest : public ::testing::TestWithParam<double> {};

TEST_P(DreamWindowBoundsTest, WindowWithinBounds) {
  const double noise = GetParam();
  TrainingSet history = LinearHistory(40, noise, 23);
  DreamOptions options;
  options.m_max = 25;
  Dream dream(options);
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  EXPECT_GE(est->window_size, 4u);
  EXPECT_LE(est->window_size, 25u);
}

INSTANTIATE_TEST_SUITE_P(NoiseLevels, DreamWindowBoundsTest,
                         ::testing::Values(0.0, 0.5, 2.0, 8.0, 32.0));

}  // namespace
}  // namespace midas

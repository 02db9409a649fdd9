#include "regression/dream.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "regression/incremental_ols.h"

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

TEST(DreamTest, NanRequirementRejected) {
  // Noise dominates: the full window's R² is far below any sensible
  // requirement, so no window should converge. No R² compares with NaN,
  // so unguarded, a NaN requirement reads as "reached" at the minimum
  // window (or, with the >= test, as never reached).
  TrainingSet history = LinearHistory(60, /*noise_sigma=*/50.0);
  DreamOptions options;
  options.r2_require = std::numeric_limits<double>::quiet_NaN();
  for (DreamEngine engine : {DreamEngine::kIncremental, DreamEngine::kBatch}) {
    options.engine = engine;
    auto est = Dream(options).EstimateCostValue(history);
    EXPECT_EQ(est.status().code(), StatusCode::kInvalidArgument)
        << est.status().ToString();
  }
  // ±Inf stay legal: -Inf stops at the minimum window, +Inf grows to the
  // cap without converging.
  options.engine = DreamEngine::kIncremental;
  options.r2_require = -std::numeric_limits<double>::infinity();
  auto lowest = Dream(options).EstimateCostValue(history);
  ASSERT_TRUE(lowest.ok());
  EXPECT_EQ(lowest->window_size, 4u);
  EXPECT_TRUE(lowest->converged);
  options.r2_require = std::numeric_limits<double>::infinity();
  auto highest = Dream(options).EstimateCostValue(history);
  ASSERT_TRUE(highest.ok());
  EXPECT_EQ(highest->window_size, 60u);
  EXPECT_FALSE(highest->converged);
}

TEST(DreamTest, NanRSquaredNeverConverges) {
  // One finite but extreme cost overflows the window's sums of squares:
  // SSE and SST are both infinite, so that metric's R² = 1 - inf/inf is
  // NaN at every window holding it. NaN is no quality level; it must not
  // stop the window at L + 2 as "reached".
  TrainingSet history = LinearHistory(20, /*noise_sigma=*/0.5);
  ASSERT_TRUE(
      history.Add({1.0, 1.0}, {std::numeric_limits<double>::max(), 9.0})
          .ok());
  auto est = Dream().EstimateCostValue(history);
  ASSERT_TRUE(est.ok());
  ASSERT_EQ(est->r_squared.size(), 2u);
  EXPECT_TRUE(std::isnan(est->r_squared[0]));
  EXPECT_FALSE(est->converged);
  EXPECT_EQ(est->window_size, 21u);
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

TEST(DreamEngineEquivalenceTest, ConstantFeatureMatchesBatch) {
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

TEST(DreamEngineEquivalenceTest, CollinearFeaturesMatchesBatch) {
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

// --- Pruned scan vs the unpruned Algorithm 1 --------------------------------
//
// kIncremental fits only the windows where every metric's R² upper bound
// (IncrementalOls::RSquaredBound) admits r2_require, plus the window it
// returns. The reference below is Algorithm 1 without that pruning: the
// same factor, grown in the same row order, fitted at every window. Every
// skipped fit is one the reference throws away, so window, verdict, R²,
// SSE/SST and every coefficient must match bit for bit.

// The m_cap EstimateCostValue derives from M_max and the history length.
size_t WindowCap(const TrainingSet& history, const DreamOptions& options) {
  const size_t m_min = history.num_features() + 2;
  size_t m_cap = options.m_max == 0 ? history.size() : options.m_max;
  return std::max(std::min(m_cap, history.size()), m_min);
}

DreamEstimate UnprunedScan(const TrainingSet& history,
                           const DreamOptions& options) {
  const size_t m_min = history.num_features() + 2;
  const size_t m_cap = WindowCap(history, options);
  const size_t first = history.size() - m_cap;  // oldest row up to the cap
  IncrementalOls engine(history.num_features(), history.num_metrics());
  // The newest L + 2 rows oldest first, then one older row per window.
  for (size_t i = m_cap - m_min; i < m_cap; ++i) {
    const Observation& obs = history.at(first + i);
    engine.Add(obs.features, obs.costs).CheckOK();
  }
  DreamEstimate est;
  for (size_t m = m_min; m <= m_cap; ++m) {
    if (m > m_min) {
      const Observation& obs = history.at(first + m_cap - m);
      engine.Add(obs.features, obs.costs).CheckOK();
    }
    est = DreamEstimate();
    engine.FitAll(&est.models).CheckOK();
    est.window_size = m;
    est.fitted_windows = m - m_min + 1;
    est.converged = true;
    for (const OlsModel& model : est.models) {
      const double r2 = options.use_adjusted_r2 ? model.adjusted_r_squared()
                                                : model.r_squared();
      est.r_squared.push_back(r2);
      if (!(r2 >= options.r2_require)) est.converged = false;
    }
    if (est.converged) break;
  }
  return est;
}

std::string Describe(const DreamOptions& options) {
  return "r2_require " + std::to_string(options.r2_require) + " m_max " +
         std::to_string(options.m_max) +
         (options.use_adjusted_r2 ? " adjusted" : " plain");
}

// Runs the default engine and the reference; returns the engine's estimate.
DreamEstimate ExpectMatchesUnprunedScan(const TrainingSet& history,
                                        DreamOptions options,
                                        const std::string& label) {
  SCOPED_TRACE(label + ", " + Describe(options));
  options.engine = DreamEngine::kIncremental;
  const DreamEstimate got = Dream(options).EstimateCostValue(history)
                                .ValueOrDie();
  const DreamEstimate want = UnprunedScan(history, options);
  EXPECT_EQ(got.window_size, want.window_size);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_GE(got.fitted_windows, 1u);
  EXPECT_LE(got.fitted_windows, want.fitted_windows);
  EXPECT_EQ(got.r_squared, want.r_squared);
  EXPECT_EQ(got.models.size(), want.models.size());
  for (size_t k = 0; k < std::min(got.models.size(), want.models.size());
       ++k) {
    EXPECT_EQ(got.models[k].coefficients(), want.models[k].coefficients())
        << "metric " << k;
    EXPECT_EQ(got.models[k].sse(), want.models[k].sse()) << "metric " << k;
    EXPECT_EQ(got.models[k].sst(), want.models[k].sst()) << "metric " << k;
  }
  return got;
}

// A random history with the column shapes the serving path produces:
// random, constant (a fixed query's per-site MiB) and collinear feature
// columns, and per metric a noisy linear response, an exact one, a
// constant one (SST = 0 at every window, a perfect fit) or one that is
// constant over the newest rows and noisy before them (SST = 0 at the
// small windows, then a noisy fit).
TrainingSet RandomShapedHistory(Rng* rng, size_t l, size_t n, size_t size) {
  std::vector<std::string> features(l), metrics(n);
  for (size_t j = 0; j < l; ++j) features[j] = "x" + std::to_string(j);
  for (size_t k = 0; k < n; ++k) metrics[k] = "c" + std::to_string(k);
  TrainingSet history(std::move(features), std::move(metrics));
  enum Column { kRandom, kConstant, kCollinear };
  std::vector<Column> columns(l);
  for (size_t j = 0; j < l; ++j) {
    columns[j] = static_cast<Column>(rng->Index(j == 0 ? 2 : 3));
  }
  enum Response { kNoisy, kExact, kConstantResponse, kConstantNewest };
  std::vector<Response> responses(n);
  std::vector<Vector> truth(n, Vector(l + 1, 0.0));
  for (size_t k = 0; k < n; ++k) {
    responses[k] = static_cast<Response>(rng->Index(4));
    for (size_t j = 0; j <= l; ++j) truth[k][j] = rng->Uniform(-3, 3);
  }
  const double noise = rng->Uniform(0.1, 4.0);
  const double level = rng->Uniform(1, 50);
  const size_t constant_newest = 1 + rng->Index(size);
  for (size_t i = 0; i < size; ++i) {
    Vector x(l);
    for (size_t j = 0; j < l; ++j) {
      switch (columns[j]) {
        case kRandom: x[j] = rng->Uniform(0, 10); break;
        case kConstant: x[j] = 7.0; break;
        case kCollinear: x[j] = 2.0 * x[j - 1] + 1.0; break;
      }
    }
    Vector costs(n);
    for (size_t k = 0; k < n; ++k) {
      double y = truth[k][0];
      for (size_t j = 0; j < l; ++j) y += truth[k][j + 1] * x[j];
      switch (responses[k]) {
        case kNoisy: y += rng->Gaussian(0, noise); break;
        case kExact: break;
        case kConstantResponse: y = level; break;
        case kConstantNewest:
          y = i + constant_newest >= size ? level
                                          : y + rng->Gaussian(0, noise);
          break;
      }
      costs[k] = y;
    }
    history.Add(std::move(x), std::move(costs)).CheckOK();
  }
  return history;
}

// Every r2_require and M_max shape the scan treats differently.
std::vector<DreamOptions> OptionGrid(Rng* rng, size_t l, size_t size) {
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<double> requirements = {-inf, 0.0, rng->Uniform(0.5, 0.99),
                                            1.0,  2.0, inf};
  const std::vector<size_t> caps = {
      0,                               // all history
      1 + rng->Index(l + 1),           // below L + 2: clamped up to it
      l + 2,                           // exactly the minimum window
      l + 2 + rng->Index(size - l - 1),  // a random cap inside the history
      size + 1 + rng->Index(10),       // past the history
  };
  std::vector<DreamOptions> grid;
  for (double r2 : requirements) {
    for (size_t cap : caps) {
      for (bool adjusted : {false, true}) {
        DreamOptions options;
        options.r2_require = r2;
        options.m_max = cap;
        options.use_adjusted_r2 = adjusted;
        grid.push_back(options);
      }
    }
  }
  return grid;
}

TEST(DreamPrunedScanTest, MatchesUnprunedScanOnShapedHistories) {
  Rng rng(2019);
  size_t pruned = 0;
  for (size_t l = 1; l <= 5; ++l) {
    for (size_t n = 1; n <= 3; ++n) {
      for (int trial = 0; trial < 4; ++trial) {
        const size_t size = l + 2 + rng.Index(60);
        const TrainingSet history = RandomShapedHistory(&rng, l, n, size);
        const std::string label = "L " + std::to_string(l) + " N " +
                                  std::to_string(n) + " trial " +
                                  std::to_string(trial);
        for (const DreamOptions& options : OptionGrid(&rng, l, size)) {
          const DreamEstimate est =
              ExpectMatchesUnprunedScan(history, options, label);
          if (est.fitted_windows < est.window_size - (l + 2) + 1) ++pruned;
        }
      }
    }
  }
  // The pruning must actually engage somewhere on this grid.
  EXPECT_GT(pruned, 0u);
}

// The serving shape: MidasSystem::Bootstrap histories of Example 2.1 on
// the paper's federation (rank 3 of 5) at 50, 100 and 150 observations,
// then RunQuery feedback, whose recorded plans make windows converge part
// way. Bootstrap-only histories never converge at the default options, so
// there the scan must also have skipped most fits.
TEST(DreamPrunedScanTest, MatchesUnprunedScanOnServingHistories) {
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  for (uint64_t seed : {2019u, 7211u}) {
    Federation federation = Federation::PaperFederation();
    ASSERT_TRUE(PlaceMedicalTables(&federation).ok());
    MidasOptions midas_options;
    midas_options.seed = seed;
    MidasSystem system(std::move(federation),
                       MakeMedicalCatalog().ValueOrDie(), midas_options);
    const DreamOptions defaults = system.options().estimator.dream;
    std::vector<DreamOptions> variants(4, defaults);
    variants[1].use_adjusted_r2 = true;
    variants[2].m_max = 12;  // 2N, N = L + 2 = 6
    variants[3].r2_require = 0.5;
    auto scope_history = [&system] {
      return system.modelling().history().Get("example21").ValueOrDie();
    };
    size_t have = 0;
    for (size_t size : {50u, 100u, 150u}) {
      ASSERT_TRUE(system.Bootstrap("example21", query, size - have).ok());
      have = size;
      const TrainingSet* history = scope_history();
      const std::string label = "seed " + std::to_string(seed) +
                                " bootstrap " + std::to_string(size);
      const DreamEstimate est =
          ExpectMatchesUnprunedScan(*history, defaults, label);
      const size_t scanned =
          est.window_size - (history->num_features() + 2) + 1;
      EXPECT_LT(est.fitted_windows, scanned) << label;
      for (const DreamOptions& options : variants) {
        ExpectMatchesUnprunedScan(*history, options, label);
      }
    }
    size_t converged = 0;
    for (size_t q = 0; q < 40; ++q) {
      QueryPolicy policy;
      const double w = 0.1 * static_cast<double>(1 + q % 9);
      policy.weights = {w, 1.0 - w};
      ASSERT_TRUE(system.RunQuery("example21", query, policy).ok());
      const std::string label =
          "seed " + std::to_string(seed) + " query " + std::to_string(q);
      for (const DreamOptions& options : variants) {
        if (ExpectMatchesUnprunedScan(*scope_history(), options, label)
                .converged) {
          ++converged;
        }
      }
    }
    // The feedback histories exercise the converging exit too.
    EXPECT_GT(converged, 0u) << "seed " << seed;
  }
}

}  // namespace
}  // namespace midas

// Cross-component equivalence and consistency checks, including both
// DREAM engines on the histories the serving path really fits: there the
// incremental engine's rank-revealing QR must reproduce the batch
// reference's window, convergence, R² and predicted plan costs.

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ires/features.h"
#include "ires/modelling.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "optimizer/best_in_pareto.h"
#include "ml/least_squares.h"
#include "optimizer/pareto.h"
#include "optimizer/wsm.h"
#include "query/enumerator.h"
#include "regression/dream.h"

namespace midas {
namespace {

// DREAM stopped at window m must predict what a plain OLS fit on the
// newest m observations predicts — Algorithm 1 is windowed MLR, no more.
// The batch engine goes through FitOls itself, so it matches bitwise; the
// default incremental engine solves the same least-squares problem from a
// Givens-updated QR factor and takes SSE from it, so it matches to
// numerical precision.
TEST(EquivalenceTest, DreamMatchesOlsAtItsWindow) {
  Rng rng(3);
  TrainingSet set({"x1", "x2"}, {"c"});
  for (int i = 0; i < 40; ++i) {
    const double x1 = rng.Uniform(0, 10);
    const double x2 = rng.Uniform(0, 10);
    set.Add({x1, x2}, {3 + x1 + 2 * x2 + rng.Gaussian(0, 0.5)}).CheckOK();
  }
  DreamOptions batch_options;
  batch_options.engine = DreamEngine::kBatch;
  auto batch = Dream(batch_options).EstimateCostValue(set).ValueOrDie();
  auto incremental = Dream().EstimateCostValue(set).ValueOrDie();
  ASSERT_EQ(incremental.window_size, batch.window_size);
  const size_t m = batch.window_size;
  auto xs = set.RecentFeatures(m).ValueOrDie();
  auto ys = set.RecentCosts(m, 0).ValueOrDie();
  auto ols = FitOls(xs, ys).ValueOrDie();
  const Vector probe = {4.0, 6.0};
  const double ols_prediction = ols.Predict(probe).ValueOrDie();
  EXPECT_DOUBLE_EQ(batch.models[0].Predict(probe).ValueOrDie(),
                   ols_prediction);
  EXPECT_DOUBLE_EQ(batch.models[0].r_squared(), ols.r_squared());
  EXPECT_NEAR(incremental.models[0].Predict(probe).ValueOrDie(),
              ols_prediction, 1e-9);
  EXPECT_NEAR(incremental.models[0].r_squared(), ols.r_squared(), 1e-9);
}

// The LeastSquaresLearner must agree with FitOls — it is the same model
// behind the Learner interface.
TEST(EquivalenceTest, LeastSquaresLearnerMatchesFitOls) {
  Rng rng(5);
  std::vector<Vector> xs;
  Vector ys;
  for (int i = 0; i < 15; ++i) {
    const double x = rng.Uniform(0, 5);
    xs.push_back({x});
    ys.push_back(2 * x + rng.Gaussian(0, 0.2));
  }
  LeastSquaresLearner learner;
  ASSERT_TRUE(learner.Fit(xs, ys).ok());
  auto direct = FitOls(xs, ys).ValueOrDie();
  EXPECT_DOUBLE_EQ(learner.Predict({2.5}).ValueOrDie(),
                   direct.Predict({2.5}).ValueOrDie());
}

// BestInPareto with no constraints must agree with WsmSelect over the
// same set (Algorithm 2 degenerates to the weighted-sum ranking).
TEST(EquivalenceTest, UnconstrainedBestInParetoIsWsmSelect) {
  Rng rng(7);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<Vector> costs;
    const size_t n = 3 + rng.Index(20);
    for (size_t i = 0; i < n; ++i) {
      costs.push_back({rng.Uniform(1, 100), rng.Uniform(0.001, 0.1)});
    }
    const double w = rng.Uniform(0.05, 0.95);
    QueryPolicy policy;
    policy.weights = {w, 1.0 - w};
    EXPECT_EQ(BestInPareto(costs, policy).ValueOrDie(),
              WsmSelect(costs, policy.weights).ValueOrDie());
  }
}

// Weak dominance must be a superset relation of strict dominance, and
// standard dominance must sit between them.
TEST(EquivalenceTest, DominanceHierarchy) {
  Rng rng(9);
  for (int trial = 0; trial < 200; ++trial) {
    const Vector a = {rng.Uniform(0, 2), rng.Uniform(0, 2)};
    const Vector b = {rng.Uniform(0, 2), rng.Uniform(0, 2)};
    if (StrictlyDominates(a, b)) {
      EXPECT_TRUE(Dominates(a, b));
    }
    if (Dominates(a, b)) {
      EXPECT_TRUE(WeaklyDominates(a, b));
    }
  }
}

// Modelling's DREAM path and a hand-rolled Dream over the same history
// must agree (the module adds only clamping, which is inactive for
// positive costs).
TEST(EquivalenceTest, ModellingDreamMatchesRawDream) {
  Modelling modelling({"x"}, {"c"});
  Rng rng(11);
  TrainingSet mirror({"x"}, {"c"});
  for (int i = 0; i < 20; ++i) {
    const double x = rng.Uniform(1, 10);
    const double c = 5 + 3 * x + rng.Gaussian(0, 0.3);
    Observation obs;
    obs.timestamp = i;
    obs.features = {x};
    obs.costs = {c};
    modelling.Record("q", obs).CheckOK();
    mirror.Add(std::move(obs)).CheckOK();
  }
  EstimatorConfig config = EstimatorConfig::DreamDefault();
  const Vector probe = {5.5};
  auto module_pred =
      modelling.Predict(*modelling.Snapshot(), "q", probe, config)
          .ValueOrDie();
  Dream raw(config.dream);
  auto raw_pred = raw.PredictCosts(mirror, probe).ValueOrDie();
  EXPECT_DOUBLE_EQ(module_pred[0], raw_pred[0]);
}

// Both engines on MidasSystem::Bootstrap histories: Example 2.1 on the
// paper's two-site federation, 8 scopes of 100-150 observations, under the
// default DREAM options. For the fixed query each site's scanned MiB is
// constant, so every window's design matrix is rank deficient. The
// engines must pick the same window with the same verdict, agree on R² to
// 1e-8 and predict every one of the 96 candidate plans to 1e-9 relative.
TEST(DreamEngineEquivalenceTest, ServingHistoriesMatchBatch) {
  Federation federation = Federation::PaperFederation();
  ASSERT_TRUE(PlaceMedicalTables(&federation).ok());
  MidasSystem system(std::move(federation), MakeMedicalCatalog().ValueOrDie());
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  constexpr size_t kScopes = 8;
  for (size_t s = 0; s < kScopes; ++s) {
    ASSERT_TRUE(system
                    .Bootstrap("s" + std::to_string(s), query,
                               100 + 50 * s / (kScopes - 1))
                    .ok());
  }
  PlanEnumerator enumerator(&system.federation(), &system.catalog(),
                            system.options().moqp.enumerator);
  const std::vector<QueryPlan> plans =
      enumerator.EnumeratePhysical(query).ValueOrDie();
  ASSERT_EQ(plans.size(), 96u);
  std::vector<Vector> features;
  for (const QueryPlan& plan : plans) {
    features.push_back(ExtractFeatures(system.federation(), plan).ValueOrDie());
  }
  const Matrix candidates = Matrix::FromRows(features).ValueOrDie();

  DreamOptions incremental_options = system.options().estimator.dream;
  incremental_options.engine = DreamEngine::kIncremental;
  DreamOptions batch_options = incremental_options;
  batch_options.engine = DreamEngine::kBatch;
  const History& history = system.modelling().history();
  for (size_t s = 0; s < kScopes; ++s) {
    const std::string scope = "s" + std::to_string(s);
    const TrainingSet* set = history.Get(scope).ValueOrDie();
    auto incremental =
        Dream(incremental_options).EstimateCostValue(*set).ValueOrDie();
    auto batch = Dream(batch_options).EstimateCostValue(*set).ValueOrDie();
    EXPECT_EQ(incremental.window_size, batch.window_size) << scope;
    EXPECT_EQ(incremental.converged, batch.converged) << scope;
    for (const OlsModel& model : incremental.models) {
      // Rank 3 of 5: the intercept and one MiB column get zeros.
      const Vector& beta = model.coefficients();
      EXPECT_EQ(std::count(beta.begin(), beta.end(), 0.0), 2) << scope;
    }
    ASSERT_EQ(incremental.r_squared.size(), batch.r_squared.size());
    for (size_t k = 0; k < batch.r_squared.size(); ++k) {
      EXPECT_NEAR(incremental.r_squared[k], batch.r_squared[k], 1e-8)
          << scope << " metric " << k;
    }
    const Matrix got = incremental.PredictBatch(candidates).ValueOrDie();
    const Matrix want = batch.PredictBatch(candidates).ValueOrDie();
    for (size_t r = 0; r < want.rows(); ++r) {
      for (size_t k = 0; k < want.cols(); ++k) {
        EXPECT_NEAR(got.At(r, k), want.At(r, k),
                    1e-9 * std::max(std::abs(want.At(r, k)),
                                    std::abs(got.At(r, k))))
            << scope << " plan " << r << " metric " << k;
      }
    }
  }
}

}  // namespace
}  // namespace midas

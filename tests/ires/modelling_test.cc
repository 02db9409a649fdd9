#include "ires/modelling.h"

#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "support/simd_testing.h"

namespace midas {
namespace {

// Fills a scope with a clean linear cost history: time = 5 + 2 x, money =
// 0.1 + 0.01 x.
void FillLinear(Modelling* modelling, const std::string& scope, size_t n,
                uint64_t seed = 3) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    Observation obs;
    obs.timestamp = static_cast<int64_t>(i);
    const double x = rng.Uniform(0, 10);
    obs.features = {x};
    obs.costs = {5.0 + 2.0 * x, 0.1 + 0.01 * x};
    modelling->Record(scope, std::move(obs)).CheckOK();
  }
}

TEST(EstimatorConfigTest, Names) {
  EXPECT_EQ(EstimatorName(EstimatorConfig::DreamDefault()), "DREAM");
  EXPECT_EQ(EstimatorName(EstimatorConfig::Bml(WindowPolicy::kLastN)),
            "BML_N");
  EXPECT_EQ(EstimatorName(EstimatorConfig::Bml(WindowPolicy::kAll)), "BML");
}

TEST(ModellingTest, BaseWindowIsLPlusTwo) {
  Modelling modelling({"x1", "x2", "x3"}, {"time"});
  EXPECT_EQ(modelling.BaseWindow(), 5u);
}

TEST(ModellingTest, DreamPredictsLinearCosts) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 20);
  auto pred = modelling.Predict(*modelling.Snapshot(), "q", {4.0},
                                EstimatorConfig::DreamDefault());
  ASSERT_TRUE(pred.ok());
  EXPECT_NEAR((*pred)[0], 13.0, 0.1);
  EXPECT_NEAR((*pred)[1], 0.14, 0.01);
}

TEST(ModellingTest, BmlPredictsLinearCosts) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 20);
  const auto snapshot = modelling.Snapshot();
  for (WindowPolicy policy :
       {WindowPolicy::kLastN, WindowPolicy::kLast2N, WindowPolicy::kLast3N,
        WindowPolicy::kAll}) {
    auto pred =
        modelling.Predict(*snapshot, "q", {4.0}, EstimatorConfig::Bml(policy));
    ASSERT_TRUE(pred.ok()) << WindowPolicyName(policy);
    EXPECT_NEAR((*pred)[0], 13.0, 3.0) << WindowPolicyName(policy);
  }
}

TEST(ModellingTest, PredictUnknownScopeFails) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 10);
  const auto snapshot = modelling.Snapshot();
  for (const EstimatorConfig& config :
       {EstimatorConfig::DreamDefault(),
        EstimatorConfig::Bml(WindowPolicy::kLastN)}) {
    EXPECT_EQ(modelling.Predict(*snapshot, "nope", {1.0}, config)
                  .status()
                  .code(),
              StatusCode::kNotFound)
        << EstimatorName(config);
  }
}

TEST(ModellingTest, PredictArityMismatchFails) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 10);
  EXPECT_EQ(modelling
                .Predict(*modelling.Snapshot(), "q", {1.0, 2.0},
                         EstimatorConfig::DreamDefault())
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(ModellingTest, TooLittleHistoryFails) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 2);  // below N = 3
  const auto snapshot = modelling.Snapshot();
  EXPECT_FALSE(modelling
                   .Predict(*snapshot, "q", {1.0},
                            EstimatorConfig::DreamDefault())
                   .ok());
  EXPECT_FALSE(modelling
                   .Predict(*snapshot, "q", {1.0},
                            EstimatorConfig::Bml(WindowPolicy::kLastN))
                   .ok());
}

TEST(ModellingTest, PredictionsAreNonNegative) {
  // History with a steep negative slope would extrapolate below zero;
  // Modelling clamps because costs are physical quantities.
  Modelling modelling({"x"}, {"time"});
  Rng rng(5);
  for (int i = 0; i < 12; ++i) {
    Observation obs;
    obs.timestamp = i;
    const double x = rng.Uniform(0, 1);
    obs.features = {x};
    obs.costs = {1.0 - 5.0 * x < 0 ? 0.0 : 1.0 - 5.0 * x};
    modelling.Record("q", std::move(obs)).CheckOK();
  }
  auto pred = modelling.Predict(*modelling.Snapshot(), "q", {10.0},
                                EstimatorConfig::DreamDefault());
  ASSERT_TRUE(pred.ok());
  EXPECT_GE((*pred)[0], 0.0);
}

TEST(ModellingTest, DreamDiagnosticsReportWindow) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 30);
  auto diag =
      modelling.DreamDiagnostics(*modelling.Snapshot(), "q", DreamOptions());
  ASSERT_TRUE(diag.ok());
  EXPECT_GE(diag->window_size, 3u);
  EXPECT_LE(diag->window_size, 30u);
  EXPECT_EQ(diag->r_squared.size(), 2u);
}

TEST(ModellingTest, DreamRespectsMmaxThroughConfig) {
  Modelling modelling({"x"}, {"time", "money"});
  // Noisy history so DREAM wants to grow.
  Rng rng(7);
  for (int i = 0; i < 40; ++i) {
    Observation obs;
    obs.timestamp = i;
    const double x = rng.Uniform(0, 10);
    obs.features = {x};
    obs.costs = {5.0 + 2.0 * x + rng.Gaussian(0, 10.0), 1.0};
    modelling.Record("q", std::move(obs)).CheckOK();
  }
  EstimatorConfig config = EstimatorConfig::DreamDefault();
  config.dream.r2_require = 0.999;
  config.dream.m_max = 6;
  auto diag =
      modelling.DreamDiagnostics(*modelling.Snapshot(), "q", config.dream);
  ASSERT_TRUE(diag.ok());
  EXPECT_LE(diag->window_size, 6u);
}

TEST(ModellingTest, PredictBatchMatchesScalarForAllEstimators) {
  Modelling modelling({"x"}, {"time", "money"});
  // Mildly noisy so BML model selection has real work to do.
  Rng rng(43);
  for (int i = 0; i < 25; ++i) {
    Observation obs;
    obs.timestamp = i;
    const double x = rng.Uniform(0, 10);
    obs.features = {x};
    obs.costs = {5.0 + 2.0 * x + rng.Gaussian(0, 0.5),
                 0.1 + 0.01 * x + rng.Gaussian(0, 0.01)};
    modelling.Record("q", std::move(obs)).CheckOK();
  }
  std::vector<Vector> queries;
  for (int i = 0; i < 19; ++i) queries.push_back({rng.Uniform(-2, 12)});
  Matrix x = Matrix::FromRows(queries).ValueOrDie();
  std::vector<EstimatorConfig> configs = {
      EstimatorConfig::DreamDefault(), EstimatorConfig::Bml(WindowPolicy::kLastN),
      EstimatorConfig::Bml(WindowPolicy::kAll)};
  const auto snapshot = modelling.Snapshot();
  for (const EstimatorConfig& config : configs) {
    auto batch = modelling.PredictBatch(*snapshot, "q", x, config);
    ASSERT_TRUE(batch.ok()) << EstimatorName(config);
    ASSERT_EQ(batch->rows(), queries.size()) << EstimatorName(config);
    ASSERT_EQ(batch->cols(), 2u) << EstimatorName(config);
    for (size_t i = 0; i < queries.size(); ++i) {
      const Vector scalar =
          modelling.Predict(*snapshot, "q", queries[i], config).ValueOrDie();
      for (size_t k = 0; k < scalar.size(); ++k) {
        SCOPED_TRACE(std::string(EstimatorName(config)) + " row " +
                     std::to_string(i) + " metric " + std::to_string(k));
        if (config.kind == EstimatorKind::kDream) {
          // Same per-row dot on both paths: exact on every SIMD tier.
          EXPECT_EQ(batch->At(i, k), scalar[k]);
        } else {
          MIDAS_EXPECT_SIMD_EQ(batch->At(i, k), scalar[k]);
        }
      }
    }
  }
}

// The contract the optimizer's chunking and alias copies rely on: a batch
// prediction is a pure function of each feature row. Every row must come
// out bit for bit the same in the full batch, alone in a 1-row batch and
// at another position of a permuted batch, for DREAM and both BML windows,
// over histories where least squares, bagged trees or the MLP win BML's
// selection.
TEST(ModellingTest, PredictBatchIsRowExact) {
  const std::vector<std::string> features = {"data_mib_A", "nodes_A",
                                             "data_mib_B", "nodes_B"};
  for (int shape = 0; shape < 3; ++shape) {
    Modelling modelling(features, {"seconds", "dollars"});
    Rng rng(900 + shape);
    for (int i = 0; i < 60; ++i) {
      Observation obs;
      obs.timestamp = i;
      const double a = rng.Uniform(10, 400);
      const double na = static_cast<double>(1 + rng.Index(8));
      const double b = rng.Uniform(10, 400);
      const double nb = static_cast<double>(1 + rng.Index(8));
      obs.features = {a, na, b, nb};
      double seconds = 0.0;
      switch (shape) {
        case 0:  // linear: least squares fits it
          seconds = 20.0 + 0.3 * a / na + 0.2 * b + rng.Gaussian(0, 0.5);
          break;
        case 1:  // steps: a tree fits it
          seconds = (a > 200 ? 90.0 : 30.0) + (nb > 4 ? -10.0 : 5.0);
          break;
        default:  // smooth and saturating
          seconds = 100.0 * std::tanh((a - 200.0) / 80.0) + 3.0 * na +
                    rng.Gaussian(0, 0.2);
      }
      obs.costs = {seconds, 0.001 * (na + nb) * (1.0 + a / 400.0)};
      modelling.Record("q", std::move(obs)).CheckOK();
    }
    std::vector<Vector> rows;
    for (int i = 0; i < 37; ++i) {
      rows.push_back({rng.Uniform(0, 450), static_cast<double>(1 + i % 8),
                      rng.Uniform(0, 450), static_cast<double>(1 + i % 5)});
    }
    std::vector<size_t> perm(rows.size());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = perm.size() - 1 - i;
    for (size_t i = perm.size(); i > 1; --i) {
      std::swap(perm[i - 1], perm[rng.Index(i)]);
    }
    std::vector<Vector> permuted_rows;
    for (size_t i : perm) permuted_rows.push_back(rows[i]);
    const Matrix x = Matrix::FromRows(rows).ValueOrDie();
    const Matrix permuted = Matrix::FromRows(permuted_rows).ValueOrDie();

    const auto snapshot = modelling.Snapshot();
    for (const EstimatorConfig& config :
         {EstimatorConfig::DreamDefault(),
          EstimatorConfig::Bml(WindowPolicy::kLastN),
          EstimatorConfig::Bml(WindowPolicy::kAll)}) {
      SCOPED_TRACE("shape " + std::to_string(shape) + " " +
                   EstimatorName(config));
      const Matrix full =
          modelling.PredictBatch(*snapshot, "q", x, config).ValueOrDie();
      const Matrix shuffled =
          modelling.PredictBatch(*snapshot, "q", permuted, config)
              .ValueOrDie();
      ASSERT_EQ(full.rows(), rows.size());
      for (size_t r = 0; r < rows.size(); ++r) {
        const Matrix one =
            modelling
                .PredictBatch(*snapshot, "q",
                              Matrix::FromRows({rows[r]}).ValueOrDie(), config)
                .ValueOrDie();
        for (size_t k = 0; k < full.cols(); ++k) {
          EXPECT_EQ(one.At(0, k), full.At(r, k)) << "row " << r;
        }
      }
      for (size_t i = 0; i < perm.size(); ++i) {
        for (size_t k = 0; k < full.cols(); ++k) {
          EXPECT_EQ(shuffled.At(i, k), full.At(perm[i], k))
              << "row " << perm[i] << " at " << i;
        }
      }
    }
  }
}

TEST(ModellingTest, PredictBatchErrorPaths) {
  Modelling modelling({"x"}, {"time", "money"});
  EXPECT_FALSE(modelling
                   .PredictBatch(*modelling.Snapshot(), "nope",
                                 Matrix({{1.0}}),
                                 EstimatorConfig::DreamDefault())
                   .ok());
  FillLinear(&modelling, "q", 10);
  const auto snapshot = modelling.Snapshot();
  EXPECT_FALSE(modelling
                   .PredictBatch(*snapshot, "q", Matrix({{1.0, 2.0}}),
                                 EstimatorConfig::DreamDefault())
                   .ok());
  EXPECT_FALSE(modelling
                   .PredictBatch(*snapshot, "q", Matrix({{1.0, 2.0}}),
                                 EstimatorConfig::Bml(WindowPolicy::kLastN))
                   .ok());
}

TEST(ModellingTest, RecordRejectsNonFiniteObservations) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 10);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<Vector, Vector>> bad = {
      {{4.0}, {nan, 0.1}},
      {{4.0}, {13.0, inf}},
      {{4.0}, {-inf, 0.1}},
      {{nan}, {13.0, 0.1}},
  };
  for (const auto& [features, costs] : bad) {
    Observation obs;
    obs.timestamp = 100;
    obs.features = features;
    obs.costs = costs;
    EXPECT_EQ(modelling.Record("q", std::move(obs)).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(modelling.history().SizeOf("q"), 10u);
  }
}

TEST(ModellingTest, HistoryAccessorExposesScopes) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q12", 5);
  FillLinear(&modelling, "q13", 5);
  EXPECT_EQ(modelling.history().Scopes().size(), 2u);
  EXPECT_EQ(modelling.num_metrics(), 2u);
  EXPECT_EQ(modelling.num_features(), 1u);
}

// Reading the writer-side history is not a write: the pinned snapshot, its
// epoch and its fit memos stay current.
TEST(ModellingTest, ReadingTheHistoryPublishesNothing) {
  Modelling modelling({"x"}, {"time", "money"});
  FillLinear(&modelling, "q", 5);
  const auto pinned = modelling.Snapshot();
  ASSERT_EQ(pinned->epoch(), 5u);
  EXPECT_EQ(modelling.history().SizeOf("q"), 5u);
  const auto after = modelling.Snapshot();
  EXPECT_EQ(after, pinned);
  EXPECT_EQ(after->epoch(), 5u);
}

}  // namespace
}  // namespace midas

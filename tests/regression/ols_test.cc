#include "regression/ols.h"

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

TEST(OlsTest, RecoversExactLinearModel) {
  // c = 2 + 3 x1 - x2, no noise.
  std::vector<Vector> xs;
  Vector ys;
  Rng rng(1);
  for (int i = 0; i < 20; ++i) {
    const double x1 = rng.Uniform(0, 10);
    const double x2 = rng.Uniform(0, 10);
    xs.push_back({x1, x2});
    ys.push_back(2.0 + 3.0 * x1 - x2);
  }
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->coefficients()[0], 2.0, 1e-9);
  EXPECT_NEAR(model->coefficients()[1], 3.0, 1e-9);
  EXPECT_NEAR(model->coefficients()[2], -1.0, 1e-9);
  EXPECT_NEAR(model->r_squared(), 1.0, 1e-12);
  EXPECT_NEAR(model->sse(), 0.0, 1e-9);
}

TEST(OlsTest, PredictMatchesEquation) {
  std::vector<Vector> xs = {{0}, {1}, {2}, {3}};
  Vector ys = {1, 3, 5, 7};  // c = 1 + 2x
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->Predict({10}).ValueOrDie(), 21.0, 1e-9);
}

TEST(OlsTest, PredictRejectsWrongArity) {
  auto model = FitOls({{0}, {1}, {2}}, {0, 1, 2});
  ASSERT_TRUE(model.ok());
  EXPECT_FALSE(model->Predict({1, 2}).ok());
}

TEST(OlsTest, UnfittedModelCannotPredict) {
  OlsModel model;
  EXPECT_FALSE(model.Predict({1.0}).ok());
}

TEST(OlsTest, RequiresLPlusTwoObservations) {
  // L = 2 needs at least 4 observations.
  std::vector<Vector> xs = {{1, 2}, {3, 4}, {5, 6}};
  EXPECT_FALSE(FitOls(xs, {1, 2, 3}).ok());
  xs.push_back({7, 9});
  EXPECT_TRUE(FitOls(xs, {1, 2, 3, 4}).ok());
}

TEST(OlsTest, RejectsMismatchedSizes) {
  EXPECT_FALSE(FitOls({{1}, {2}, {3}}, {1, 2}).ok());
}

TEST(OlsTest, RejectsRaggedRows) {
  EXPECT_FALSE(FitOls({{1}, {2, 3}, {4}}, {1, 2, 3}).ok());
}

TEST(OlsTest, RejectsEmpty) {
  EXPECT_FALSE(FitOls({}, {}).ok());
}

TEST(OlsTest, RSquaredMatchesPaperTable2) {
  // First M = 4 rows of the paper's Table 2 dataset must give R² = 0.7571.
  const std::vector<Vector> xs = {
      {0.4916, 0.2977}, {0.6313, 0.0482}, {0.9481, 0.8232},
      {0.4855, 2.7056}};
  const Vector ys = {20.640, 15.557, 20.971, 24.878};
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->r_squared(), 0.7571, 5e-4);
}

TEST(OlsTest, ConstantResponseGivesRSquaredOne) {
  auto model = FitOls({{1}, {2}, {3}, {4}}, {5, 5, 5, 5});
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->r_squared(), 1.0);  // SST == 0 convention
}

TEST(OlsTest, ConstantFeatureHandledByRankRevealingFit) {
  // Feature 2 constant: must fit on the remaining structure, not fail.
  std::vector<Vector> xs = {{1, 7}, {2, 7}, {3, 7}, {4, 7}, {5, 7}};
  Vector ys = {2, 4, 6, 8, 10};
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->Predict({6, 7}).ValueOrDie(), 12.0, 1e-8);
}

TEST(OlsTest, AdjustedRSquaredBelowPlainForImperfectFit) {
  Rng rng(3);
  std::vector<Vector> xs;
  Vector ys;
  for (int i = 0; i < 12; ++i) {
    const double x = rng.Uniform(0, 10);
    xs.push_back({x});
    ys.push_back(1.0 + 2.0 * x + rng.Gaussian(0, 1.0));
  }
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_LT(model->adjusted_r_squared(), model->r_squared());
  EXPECT_GT(model->r_squared(), 0.8);
}

TEST(OlsTest, NoisyFitHasPositiveSse) {
  Rng rng(4);
  std::vector<Vector> xs;
  Vector ys;
  for (int i = 0; i < 30; ++i) {
    const double x = rng.Uniform(0, 10);
    xs.push_back({x});
    ys.push_back(3.0 * x + rng.Gaussian(0, 0.5));
  }
  auto model = FitOls(xs, ys);
  ASSERT_TRUE(model.ok());
  EXPECT_GT(model->sse(), 0.0);
  EXPECT_GT(model->sst(), model->sse());
  EXPECT_EQ(model->num_samples(), 30u);
  EXPECT_EQ(model->num_features(), 1u);
}

TEST(OlsModelTest, ConstantResponseR2HonestAboutResidualError) {
  // SST == 0 (constant response): a perfect fit keeps the conventional
  // R² = 1, but leftover SSE must not masquerade as a perfect fit.
  const OlsModel perfect({5.0}, /*sse=*/0.0, /*sst=*/0.0, /*num_samples=*/6);
  EXPECT_DOUBLE_EQ(perfect.r_squared(), 1.0);
  const OlsModel failed({5.0}, /*sse=*/0.5, /*sst=*/0.0, /*num_samples=*/6);
  EXPECT_DOUBLE_EQ(failed.r_squared(), 0.0);
}

// DREAM prunes window fits with RSquaredOf evaluated at a lower bound on
// SSE, which is exact only if R² never rises as SSE grows — across both
// SST branches, the adjusted form, and the IEEE specials — and if the
// accessors evaluate that same formula.
TEST(OlsModelTest, RSquaredOfNonIncreasingInSse) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const std::vector<double> sses = {0.0,  1e-300, 1e-13, 1e-12, 2e-12, 0.5,
                                    1.0,  3.0,    1e300, inf,   nan};
  for (double sst : {0.0, 1e-12, 2.0, 1e300, inf}) {
    for (bool adjusted : {false, true}) {
      double previous = inf;
      for (double sse : sses) {
        SCOPED_TRACE("sst " + std::to_string(sst) + " sse " +
                     std::to_string(sse) + (adjusted ? " adjusted" : ""));
        const double r2 = OlsModel::RSquaredOf(sse, sst, /*num_samples=*/9,
                                               /*num_features=*/3,
                                               /*sum_yy=*/1.0, adjusted);
        if (std::isnan(r2)) {
          // Only the SST > 0 branch yields NaN, and only from inf/inf or a
          // NaN SSE, past which nothing can rank lower.
          EXPECT_NE(sst, 0.0);
          break;
        }
        EXPECT_LE(r2, previous);
        previous = r2;
      }
    }
  }
  // A NaN SSE reads as residual error at SST == 0, not as a perfect fit.
  EXPECT_EQ(OlsModel::RSquaredOf(nan, 0.0, 9, 3, 1.0, false), 0.0);
  const OlsModel model({1.0, 2.0, 0.0}, /*sse=*/1.5, /*sst=*/4.0,
                       /*num_samples=*/7, /*sum_yy=*/30.0);
  EXPECT_EQ(model.r_squared(),
            OlsModel::RSquaredOf(1.5, 4.0, 7, 2, 30.0, false));
  EXPECT_EQ(model.adjusted_r_squared(),
            OlsModel::RSquaredOf(1.5, 4.0, 7, 2, 30.0, true));
}

// Property sweep: R² is invariant to affine scaling of features.
class OlsScalingTest : public ::testing::TestWithParam<double> {};

TEST_P(OlsScalingTest, RSquaredInvariantToFeatureScaling) {
  const double scale = GetParam();
  Rng rng(5);
  std::vector<Vector> xs, xs_scaled;
  Vector ys;
  for (int i = 0; i < 15; ++i) {
    const double x1 = rng.Uniform(0, 1);
    const double x2 = rng.Uniform(0, 1);
    xs.push_back({x1, x2});
    xs_scaled.push_back({x1 * scale, x2 * scale});
    ys.push_back(1.0 + x1 - 2.0 * x2 + rng.Gaussian(0, 0.1));
  }
  auto m1 = FitOls(xs, ys);
  auto m2 = FitOls(xs_scaled, ys);
  ASSERT_TRUE(m1.ok());
  ASSERT_TRUE(m2.ok());
  EXPECT_NEAR(m1->r_squared(), m2->r_squared(), 1e-8);
}

INSTANTIATE_TEST_SUITE_P(Scales, OlsScalingTest,
                         ::testing::Values(0.001, 0.1, 10.0, 1000.0));

}  // namespace
}  // namespace midas

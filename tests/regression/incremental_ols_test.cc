#include "regression/incremental_ols.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"

namespace midas {
namespace {

// Tolerance for incremental (Givens-updated R, then a pivoted QR of R) vs
// batch (pivoted QR of the window) agreement, relative to the magnitude of
// the value compared.
void ExpectClose(double got, double want, const char* what) {
  const double tol = 1e-8 * std::max(1.0, std::abs(want));
  EXPECT_NEAR(got, want, tol) << what;
}

TEST(IncrementalOlsTest, RejectsArityMismatch) {
  IncrementalOls engine(2, 1);
  EXPECT_FALSE(engine.Add({1.0}, {1.0}).ok());
  EXPECT_FALSE(engine.Add({1.0, 2.0}, {1.0, 2.0}).ok());
  EXPECT_TRUE(engine.Add({1.0, 2.0}, {1.0}).ok());
  EXPECT_EQ(engine.size(), 1u);
}

TEST(IncrementalOlsTest, RequiresStatisticalMinimum) {
  IncrementalOls engine(1, 1);
  std::vector<OlsModel> models;
  ASSERT_TRUE(engine.Add({1.0}, {2.0}).ok());
  ASSERT_TRUE(engine.Add({2.0}, {4.0}).ok());
  EXPECT_FALSE(engine.FitAll(&models).ok());  // m = 2 < L + 2 = 3
}

TEST(IncrementalOlsTest, RecoversExactLinearModel) {
  // y0 = 1 + 2 x1 + 3 x2, y1 = 10 - x1: noiseless, so the fit is exact.
  IncrementalOls engine(2, 2);
  Rng rng(7);
  for (int i = 0; i < 12; ++i) {
    const double x1 = rng.Uniform(0, 5);
    const double x2 = rng.Uniform(0, 5);
    ASSERT_TRUE(
        engine.Add({x1, x2}, {1 + 2 * x1 + 3 * x2, 10 - x1}).ok());
  }
  std::vector<OlsModel> models;
  ASSERT_TRUE(engine.FitAll(&models).ok());
  ASSERT_EQ(models.size(), 2u);
  ExpectClose(models[0].coefficients()[0], 1.0, "intercept0");
  ExpectClose(models[0].coefficients()[1], 2.0, "slope x1");
  ExpectClose(models[0].coefficients()[2], 3.0, "slope x2");
  ExpectClose(models[1].coefficients()[0], 10.0, "intercept1");
  ExpectClose(models[1].coefficients()[1], -1.0, "slope -x1");
  EXPECT_NEAR(models[0].r_squared(), 1.0, 1e-9);
  EXPECT_EQ(models[0].num_samples(), 12u);
}

// Feeds the rows to a fresh engine and checks every metric's fit against
// batch FitOls over the same rows: coefficients (a dropped column's zero
// included), R² and adjusted R².
void ExpectMatchesFitOls(const std::vector<Vector>& xs,
                         const std::vector<Vector>& costs,
                         const std::string& what) {
  const size_t n = costs[0].size();
  IncrementalOls engine(xs[0].size(), n);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(engine.Add(xs[i], costs[i]).ok());
  }
  std::vector<OlsModel> incremental;
  ASSERT_TRUE(engine.FitAll(&incremental).ok()) << what;
  ASSERT_EQ(incremental.size(), n);
  for (size_t k = 0; k < n; ++k) {
    Vector ys;
    for (const Vector& c : costs) ys.push_back(c[k]);
    auto batch = FitOls(xs, ys);
    ASSERT_TRUE(batch.ok()) << what;
    const Vector& got = incremental[k].coefficients();
    const Vector& want = batch->coefficients();
    ASSERT_EQ(got.size(), want.size()) << what;
    for (size_t j = 0; j < got.size(); ++j) {
      EXPECT_EQ(got[j] == 0.0, want[j] == 0.0)
          << what << " metric " << k << " coefficient " << j;
      ExpectClose(got[j], want[j], "coefficient");
    }
    ExpectClose(incremental[k].r_squared(), batch->r_squared(), "R2");
    ExpectClose(incremental[k].adjusted_r_squared(),
                batch->adjusted_r_squared(), "adjusted R2");
  }
}

TEST(IncrementalOlsTest, FitsCollinearFeaturesLikeFitOls) {
  // x2 = 2 x1 exactly: the design matrix has rank 2 of 3. The rank cut
  // drops x1 (the smaller of the two columns) with a zero coefficient.
  Rng rng(13);
  std::vector<Vector> xs, costs;
  for (int i = 0; i < 10; ++i) {
    const double x1 = rng.Uniform(0, 5);
    xs.push_back({x1, 2 * x1});
    costs.push_back({1 + x1 + rng.Gaussian(0, 0.3)});
  }
  ExpectMatchesFitOls(xs, costs, "collinear");
}

TEST(IncrementalOlsTest, FitsConstantFeatureLikeFitOls) {
  // A feature constant over the window duplicates the intercept column;
  // being the larger of the two, it absorbs the intercept.
  Rng rng(17);
  std::vector<Vector> xs, costs;
  for (int i = 0; i < 10; ++i) {
    xs.push_back({3.0});
    costs.push_back({rng.Uniform(0, 1)});
  }
  ExpectMatchesFitOls(xs, costs, "constant");
}

TEST(IncrementalOlsTest, FitsExample21LayoutLikeFitOls) {
  // The serving shape of Example 2.1 on a two-site federation: per site,
  // the MiB the fixed query scans there (constant) and a node count. Three
  // columns (intercept and both MiB) span one direction, so rank 3 of 5.
  Rng rng(31);
  std::vector<Vector> xs, costs;
  for (int i = 0; i < 60; ++i) {
    const double nodes_a = static_cast<double>(rng.UniformInt(1, 4));
    const double nodes_b = static_cast<double>(rng.UniformInt(1, 4));
    xs.push_back({812.5, nodes_a, 97.25, nodes_b});
    costs.push_back({40 - 4 * nodes_a - 2 * nodes_b + rng.Gaussian(0, 2),
                     0.02 * nodes_a + 0.03 * nodes_b +
                         rng.Gaussian(0, 0.01)});
  }
  ExpectMatchesFitOls(xs, costs, "example 2.1 layout");
  IncrementalOls engine(4, 2);
  for (size_t i = 0; i < xs.size(); ++i) {
    ASSERT_TRUE(engine.Add(xs[i], costs[i]).ok());
  }
  std::vector<OlsModel> models;
  ASSERT_TRUE(engine.FitAll(&models).ok());
  for (const OlsModel& model : models) {
    // Intercept and the smaller MiB column dropped; the larger carries
    // the constant term.
    EXPECT_EQ(model.coefficients()[0], 0.0);
    EXPECT_EQ(model.coefficients()[3], 0.0);
    EXPECT_NE(model.coefficients()[1], 0.0);
  }
}

TEST(IncrementalOlsTest, ResetClearsStatistics) {
  IncrementalOls engine(1, 1);
  Rng rng(19);
  for (int i = 0; i < 8; ++i) {
    const double x = rng.Uniform(0, 5);
    ASSERT_TRUE(engine.Add({x}, {5 * x}).ok());
  }
  engine.Reset();
  EXPECT_EQ(engine.size(), 0u);
  for (int i = 0; i < 8; ++i) {
    const double x = rng.Uniform(0, 5);
    ASSERT_TRUE(engine.Add({x}, {1 + 2 * x}).ok());
  }
  std::vector<OlsModel> models;
  ASSERT_TRUE(engine.FitAll(&models).ok());
  ExpectClose(models[0].coefficients()[0], 1.0, "post-reset intercept");
  ExpectClose(models[0].coefficients()[1], 2.0, "post-reset slope");
}

// The property the engine rests on: at every window size, for every
// metric, the incremental engine agrees with batch FitOls on coefficients,
// SSE-derived R², and adjusted R² — across random problem shapes, full
// rank for the first 30 trials, then with a constant feature, a feature
// collinear with another, or (Example 2.1's shape) two constant features.
TEST(IncrementalOlsPropertyTest, MatchesBatchFitAcrossRandomProblems) {
  Rng rng(101);
  enum Degeneracy { kFullRank, kConstant, kCollinear, kTwoConstants };
  for (int trial = 0; trial < 60; ++trial) {
    const Degeneracy degeneracy =
        trial < 30 ? kFullRank : static_cast<Degeneracy>(1 + trial % 3);
    const size_t min_l = degeneracy == kFullRank ? 1 : 2;
    const size_t l = min_l + rng.Index(6 - min_l);  // features
    const size_t n = 1 + rng.Index(3);              // metrics
    const size_t m_cap = l + 2 + rng.Index(40);
    // The degenerate columns: `dep` holds a constant or a multiple of
    // column `src`; kTwoConstants pins column `src` too.
    size_t src = 0, dep = 0;
    double constant = 0.0, factor = 0.0;
    if (degeneracy != kFullRank) {
      src = rng.Index(l);
      dep = (src + 1 + rng.Index(l - 1)) % l;
      constant = rng.Uniform(5, 500);
      factor = (rng.Bernoulli(0.5) ? 1 : -1) * rng.Uniform(1.5, 3);
    }

    // Random ground-truth linear models with noise.
    std::vector<Vector> truth(n, Vector(l + 1, 0.0));
    for (size_t k = 0; k < n; ++k) {
      for (size_t j = 0; j <= l; ++j) truth[k][j] = rng.Uniform(-3, 3);
    }
    std::vector<Vector> xs;
    std::vector<Vector> ys(n);
    IncrementalOls engine(l, n);
    for (size_t i = 0; i < m_cap; ++i) {
      Vector x(l);
      for (size_t j = 0; j < l; ++j) x[j] = rng.Uniform(0, 10);
      switch (degeneracy) {
        case kFullRank:
          break;
        case kConstant:
          x[dep] = constant;
          break;
        case kCollinear:
          x[dep] = factor * x[src];
          break;
        case kTwoConstants:
          x[dep] = constant;
          x[src] = 0.25 * constant;
          break;
      }
      Vector costs(n);
      for (size_t k = 0; k < n; ++k) {
        double y = truth[k][0];
        for (size_t j = 0; j < l; ++j) y += truth[k][j + 1] * x[j];
        costs[k] = y + rng.Gaussian(0, 0.5);
        ys[k].push_back(costs[k]);
      }
      xs.push_back(x);
      ASSERT_TRUE(engine.Add(x, costs).ok());

      if (i + 1 < l + 2) continue;  // below the statistical minimum
      std::vector<OlsModel> incremental;
      ASSERT_TRUE(engine.FitAll(&incremental).ok())
          << "trial " << trial << " window " << i + 1;
      ASSERT_EQ(incremental.size(), n);
      for (size_t k = 0; k < n; ++k) {
        auto batch = FitOls(xs, ys[k]);
        ASSERT_TRUE(batch.ok());
        const Vector& got = incremental[k].coefficients();
        const Vector& want = batch->coefficients();
        ASSERT_EQ(got.size(), want.size());
        for (size_t j = 0; j < got.size(); ++j) {
          EXPECT_EQ(got[j] == 0.0, want[j] == 0.0)
              << "trial " << trial << " window " << i + 1 << " coefficient "
              << j;
          ExpectClose(got[j], want[j], "coefficient");
        }
        ExpectClose(incremental[k].r_squared(), batch->r_squared(), "R2");
        ExpectClose(incremental[k].adjusted_r_squared(),
                    batch->adjusted_r_squared(), "adjusted R2");
      }
    }
  }
}

}  // namespace
}  // namespace midas

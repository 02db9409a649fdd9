#include "regression/ols.h"

#include "linalg/simd.h"

#include <algorithm>
#include <cmath>

#include "linalg/decomposition.h"

namespace midas {

OlsModel::OlsModel(Vector coefficients, double sse, double sst,
                   size_t num_samples, double sum_yy)
    : coefficients_(std::move(coefficients)),
      sse_(sse),
      sst_(sst),
      num_samples_(num_samples),
      sum_yy_(sum_yy) {}

double OlsModel::r_squared() const {
  return RSquaredOf(sse_, sst_, num_samples_, num_features(), sum_yy_,
                    /*adjusted=*/false);
}

double OlsModel::adjusted_r_squared() const {
  return RSquaredOf(sse_, sst_, num_samples_, num_features(), sum_yy_,
                    /*adjusted=*/true);
}

double OlsModel::RSquaredOf(double sse, double sst, size_t num_samples,
                            size_t num_features, double sum_yy,
                            bool adjusted) {
  double r2;
  if (sst == 0.0) {
    // Constant response: R² is formally undefined. A perfect fit earns the
    // conventional 1; residual error beyond rounding noise means the model
    // failed to reproduce even a constant, which is the opposite of
    // explanatory power — report 0 instead of the old (vacuously
    // optimistic) 1.
    r2 = sse <= 1e-12 * std::max(sum_yy, 1e-12) ? 1.0 : 0.0;
  } else {
    r2 = 1.0 - sse / sst;
  }
  if (!adjusted) return r2;
  const double n = static_cast<double>(num_samples);
  const double l = static_cast<double>(num_features);
  if (n - l - 1.0 <= 0.0) return r2;
  return 1.0 - (1.0 - r2) * (n - 1.0) / (n - l - 1.0);
}

StatusOr<double> OlsModel::Predict(const Vector& x) const {
  if (coefficients_.empty()) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (x.size() != num_features()) {
    return Status::InvalidArgument("feature length mismatch");
  }
  // Intercept-seeded ascending dot, dispatched through the kernel layer;
  // the scalar tier reproduces this exact association.
  return simd::DotAcc(coefficients_[0], coefficients_.data() + 1, x.data(),
                      x.size());
}

Status OlsModel::PredictBatch(const Matrix& X, Vector* out) const {
  if (coefficients_.empty()) {
    return Status::FailedPrecondition("model is not fitted");
  }
  if (X.cols() != num_features()) {
    return Status::InvalidArgument("feature length mismatch");
  }
  out->resize(X.rows());
  const size_t l = num_features();
  for (size_t r = 0; r < X.rows(); ++r) {
    (*out)[r] = simd::DotAcc(coefficients_[0], coefficients_.data() + 1,
                             X.RowData(r), l);
  }
  return Status::OK();
}

namespace {

// Design matrix A of Eq. 8: leading column of ones, then the features.
Matrix BuildDesignMatrix(const std::vector<Vector>& features) {
  const size_t m = features.size();
  const size_t l = features.empty() ? 0 : features[0].size();
  Matrix a(m, l + 1);
  for (size_t r = 0; r < m; ++r) {
    a.At(r, 0) = 1.0;
    for (size_t c = 0; c < l; ++c) a.At(r, c + 1) = features[r][c];
  }
  return a;
}

// Ridge solve of (AᵀA + λ' I) B = AᵀC, with λ' scaled to the problem:
// λ' = λ · trace(AᵀA) / cols, so the penalty is meaningful regardless of
// the features' magnitudes.
StatusOr<Vector> RidgeSolve(const Matrix& a, const Vector& y, double lambda) {
  Matrix ata = a.Gram();  // AᵀA without materializing the transpose
  double trace = 0.0;
  for (size_t i = 0; i < ata.rows(); ++i) trace += ata.At(i, i);
  const double scaled =
      std::max(lambda * trace / static_cast<double>(ata.rows()), 1e-12);
  for (size_t i = 0; i < ata.rows(); ++i) ata.At(i, i) += scaled;
  MIDAS_ASSIGN_OR_RETURN(Vector aty, a.TransposeTimesVector(y));
  return CholeskySolve(ata, aty);
}

}  // namespace

StatusOr<OlsModel> FitOls(const std::vector<Vector>& features,
                          const Vector& response, const OlsOptions& options) {
  const size_t m = features.size();
  if (m != response.size()) {
    return Status::InvalidArgument("features/response size mismatch");
  }
  if (m == 0) return Status::InvalidArgument("empty training data");
  const size_t l = features[0].size();
  for (const Vector& row : features) {
    if (row.size() != l) {
      return Status::InvalidArgument("ragged feature rows");
    }
  }
  if (m < l + 2) {
    return Status::InvalidArgument(
        "need at least L + 2 observations to fit an MLR with L variables");
  }

  const Matrix a = BuildDesignMatrix(features);
  Vector beta;
  // Rank-revealing solve: dependent columns (e.g., a feature constant over
  // the window) get zero coefficients instead of failing the fit.
  auto qr_solution = PivotedLeastSquaresSolve(a, response);
  if (qr_solution.ok()) {
    beta = std::move(qr_solution).ValueOrDie();
  } else if (options.ridge_fallback > 0.0) {
    MIDAS_ASSIGN_OR_RETURN(beta, RidgeSolve(a, response,
                                            options.ridge_fallback));
  } else {
    return qr_solution.status();
  }

  MIDAS_ASSIGN_OR_RETURN(Vector fitted, a.MultiplyVector(beta));
  double sse = 0.0;
  double mean = 0.0;
  for (double y : response) mean += y;
  mean /= static_cast<double>(m);
  double sst = 0.0;
  double sum_yy = 0.0;
  for (size_t i = 0; i < m; ++i) {
    const double e = response[i] - fitted[i];
    sse += e * e;
    sst += (response[i] - mean) * (response[i] - mean);
    sum_yy += response[i] * response[i];
  }
  return OlsModel(std::move(beta), sse, sst, m, sum_yy);
}

}  // namespace midas

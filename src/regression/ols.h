#ifndef MIDAS_REGRESSION_OLS_H_
#define MIDAS_REGRESSION_OLS_H_

#include <vector>

#include "linalg/matrix.h"

namespace midas {

/// \brief A fitted ordinary-least-squares Multiple Linear Regression model
/// (paper §2.5):  ĉ = β̂0 + β̂1 x1 + ... + β̂L xL.
///
/// Produced by FitOls below. Holds the coefficient vector (intercept first)
/// plus the goodness-of-fit statistics the paper's Algorithm 1 consumes.
class OlsModel {
 public:
  OlsModel() = default;
  /// \param sum_yy Σy² of the fitted response — the scale against which a
  /// residual counts as genuinely nonzero in the SST == 0 degenerate case
  /// (see r_squared()). 0 means "unknown", making any positive SSE count.
  OlsModel(Vector coefficients, double sse, double sst, size_t num_samples,
           double sum_yy = 0.0);

  /// β̂, intercept at index 0, then one slope per feature.
  const Vector& coefficients() const { return coefficients_; }

  /// Number of features L (coefficients().size() - 1).
  size_t num_features() const {
    return coefficients_.empty() ? 0 : coefficients_.size() - 1;
  }

  size_t num_samples() const { return num_samples_; }

  /// Sum of squared errors, Eq. 11.
  double sse() const { return sse_; }
  /// Total sum of squares around the response mean.
  double sst() const { return sst_; }

  /// Coefficient of determination R² = 1 - SSE/SST (Eq. 14). When SST == 0
  /// (constant response) returns 1 for a perfect fit and 0 when residual
  /// error remains — "perfect" judged relative to the response magnitude
  /// Σy², so rounding noise in an exactly-reproduced constant still earns 1.
  double r_squared() const;

  /// Adjusted R², penalising model size: 1-(1-R²)(n-1)/(n-L-1).
  double adjusted_r_squared() const;

  /// The one formula r_squared() and adjusted_r_squared() evaluate, on
  /// explicit statistics. It is non-increasing in sse in IEEE arithmetic:
  /// 1 - sse/sst divides by SST ≥ 0, the SST == 0 branch steps down from 1
  /// to 0 (a NaN SSE reads as residual error), and the adjustment scales
  /// 1 - R² by a positive factor. So evaluated at any lower bound on a
  /// fit's SSE it is an upper bound on that fit's R² (DREAM prunes
  /// Algorithm 1's window fits with it).
  static double RSquaredOf(double sse, double sst, size_t num_samples,
                           size_t num_features, double sum_yy,
                           bool adjusted);

  /// Predicts the cost for a feature vector of length num_features().
  StatusOr<double> Predict(const Vector& x) const;

  /// Batched Predict: one matrix-vector product over the whole design
  /// matrix, (*out)[r] = β̂0 + Σ_l β̂_{l+1} X(r, l) with the terms added in
  /// the same order as the scalar path, so batch == scalar bit-for-bit.
  Status PredictBatch(const Matrix& X, Vector* out) const;

 private:
  Vector coefficients_;
  double sse_ = 0.0;
  double sst_ = 0.0;
  size_t num_samples_ = 0;
  double sum_yy_ = 0.0;
};

struct OlsOptions {
  /// Ridge penalty added to the normal equations when the design matrix is
  /// rank-deficient (e.g., a window of identical feature vectors). 0 disables
  /// the fallback and rank deficiency becomes an error.
  double ridge_fallback = 1e-6;
};

/// Fits ĉ = β̂0 + Σ β̂l x_l by least squares (Eq. 12, B = (AᵀA)⁻¹AᵀC, solved
/// via Householder QR for numerical stability).
///
/// \param features one row per observation (each of length L)
/// \param response one cost value per observation
/// Requires features.size() == response.size() >= L + 2 — the statistical
/// minimum the paper uses (Soong 2004) — so that R² is meaningful.
StatusOr<OlsModel> FitOls(const std::vector<Vector>& features,
                          const Vector& response,
                          const OlsOptions& options = OlsOptions());

}  // namespace midas

#endif  // MIDAS_REGRESSION_OLS_H_

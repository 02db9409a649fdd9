#ifndef MIDAS_REGRESSION_INCREMENTAL_OLS_H_
#define MIDAS_REGRESSION_INCREMENTAL_OLS_H_

#include <vector>

#include "regression/ols.h"

namespace midas {

/// \brief Incremental multi-metric OLS over a growing observation window,
/// by a QR factorisation updated one row at a time.
///
/// Keeps the triangular factor of the window instead of the observations:
///
///   - R — the (L+1)x(L+1) upper-triangular factor of the design matrix
///         X = [1 | features] (X = Q R, Q never formed), shared by *all* N
///         metrics because they regress on the same features. RᵀR = XᵀX,
///         so R's column norms are X's;
///   - per metric: the head z = (Qᵀy)[0, L] and the residual sum of squares
///     the rotations have already split off, plus a running mean/M2
///     (Welford) for SST and Σy².
///
/// Adding one observation rotates its row into R with L+1 Givens rotations
/// and applies each to every metric's (z, y) pair: O(L² + N·L). Fitting at
/// the current window runs PivotedQrInPlace — FitOls's pivot rule and rank
/// cut — on a copy of R with the N heads as right-hand sides, O(L³ + N·L²),
/// and back-solves the basic solution. A feature that is constant or
/// collinear over the window (the per-site data sizes of a fixed query,
/// say) gets a zero coefficient exactly as in FitOls instead of failing the
/// fit. SSE is the split-off residual plus the dropped tail of the reduced
/// heads, so neither Add nor FitAll ever revisits the m window rows, and
/// the conditioning is that of X, not of XᵀX.
///
/// Because SSE is the split-off residual plus non-negative squares,
/// RSquaredBound reads an upper bound on the R² FitAll would report in
/// O(1) per metric, before paying for the fit: a caller that only wants
/// fits reaching some R² (Algorithm 1) calls FitAll only where every
/// metric's bound admits it.
class IncrementalOls {
 public:
  /// \param num_features L — length of each feature vector.
  /// \param num_metrics N — number of simultaneously regressed responses.
  IncrementalOls(size_t num_features, size_t num_metrics);

  size_t num_features() const { return num_features_; }
  size_t num_metrics() const { return num_metrics_; }
  /// Number of observations accumulated so far (the current window size m).
  size_t size() const { return num_observations_; }

  /// Rotates one observation into the factor. Fails on arity mismatch.
  Status Add(const Vector& features, const Vector& costs);

  /// Drops all accumulated statistics; dimensions are kept and the
  /// internal buffers stay allocated.
  void Reset();

  /// Fits all N metrics at the current window. Requires size() >= L + 2
  /// (the same statistical minimum as batch FitOls); rank-deficient
  /// windows fit like any other, with FitOls's rank, pivot order and zero
  /// coefficients on the dropped columns.
  ///
  /// On success appends one OlsModel per metric (in metric order) to *out,
  /// which is cleared first.
  Status FitAll(std::vector<OlsModel>* out) const;

  /// Upper bound on the R² (adjusted R² when `adjusted`) that FitAll would
  /// report for `metric` at the current window: OlsModel::RSquaredOf at the
  /// residual the rotations have split off, which FitAll's SSE can only
  /// grow. Requires size() >= L + 2, like FitAll.
  double RSquaredBound(size_t metric, bool adjusted) const;

 private:
  size_t num_features_;
  size_t num_metrics_;
  size_t num_observations_ = 0;

  Matrix r_;        // R, (L+1)x(L+1) upper triangular, shared across metrics
  Matrix heads_;    // (L+1) x N: column k is metric k's (Qᵀy)[0, L]
  Vector rss_;      // per metric, residual split off by the rotations
  Vector mean_y_;   // per metric, running mean of y
  Vector m2_y_;     // per metric, running Σ(y - mean)² — the SST
  Vector sum_yy_;   // per metric, Σy²

  // Scratch reused across Add/FitAll calls so the steady state allocates
  // only the per-model coefficient vectors it hands out.
  Vector design_row_;                       // [1, x₁, .., x_L], rotated away
  Vector y_;                                // costs, rotated into residuals
  mutable Matrix reduced_r_;                // copy of R that FitAll reduces
  mutable Matrix reduced_heads_;            // copy of the heads, likewise
  mutable std::vector<size_t> permutation_;
};

}  // namespace midas

#endif  // MIDAS_REGRESSION_INCREMENTAL_OLS_H_

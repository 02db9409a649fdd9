#ifndef MIDAS_REGRESSION_DREAM_H_
#define MIDAS_REGRESSION_DREAM_H_

#include <vector>

#include "regression/ols.h"
#include "regression/training_set.h"

namespace midas {

/// \brief Which fitting engine backs Algorithm 1's window growth.
enum class DreamEngine {
  /// Keeps one QR factor of the window's design matrix for all metrics
  /// (IncrementalOls) and grows the window by Givens-rotating each older
  /// observation into it: O(L² + N·L) per window, independent of the
  /// window size m. The O(L³ + N·L²) pivoted QR of the factor runs only at
  /// windows where every metric's R² upper bound (IncrementalOls::
  /// RSquaredBound) admits r2_require, plus the window it returns; every
  /// other window's fit could not converge, so skipping it changes no
  /// result. The fit is rank revealing with FitOls's pivot rule, so windows
  /// with constant or collinear features stay on this path. This is the
  /// default.
  kIncremental,
  /// Refits every window from scratch with batch FitOls (pivoted QR per
  /// metric over the m window rows) — the original implementation, kept as
  /// the unpruned reference path for equivalence tests and benchmarks.
  kBatch,
};

/// \brief Configuration for the Dynamic REgression AlgorithM.
struct DreamOptions {
  /// R²_require of Algorithm 1: the window stops growing once every metric's
  /// MLR reaches this coefficient of determination. The paper recommends 0.8
  /// "to provide a sufficient quality of service level". NaN is rejected
  /// (no R² compares with it); -Inf stops at the minimum window and any
  /// value above 1, +Inf included, grows the window to the cap.
  double r2_require = 0.8;

  /// M_max of Algorithm 1: hard cap on the window size. 0 means "all
  /// available history".
  size_t m_max = 0;

  /// Algorithm 1's literal stopping statistic is R² (Eq. 14, the
  /// default). When true, the *adjusted* R² is used instead, discounting
  /// the mechanical fit inflation of windows barely larger than the
  /// coefficient count. The ablation bench compares both.
  bool use_adjusted_r2 = false;

  /// FitOls options of the kBatch engine (its ridge fallback); the
  /// incremental engine's rank-revealing fit takes none.
  OlsOptions ols;

  /// Fitting engine; see DreamEngine. Both engines implement the same
  /// Algorithm 1 semantics and agree on the selected window and
  /// convergence flag, and on the models up to floating-point noise.
  DreamEngine engine = DreamEngine::kIncremental;
};

/// \brief Result of one DREAM estimation pass: the fitted per-metric MLR
/// models plus the window that satisfied (or exhausted) the R² requirement.
struct DreamEstimate {
  /// One fitted model per cost metric, in TrainingSet metric order.
  std::vector<OlsModel> models;
  /// Final window size m (number of newest observations used).
  size_t window_size = 0;
  /// R² per metric at the final window.
  std::vector<double> r_squared;
  /// True when every metric reached r2_require before hitting the cap.
  bool converged = false;
  /// Windows the engine actually fitted on the way to window_size: every
  /// window for kBatch, only those the R² bound admitted plus the returned
  /// one for kIncremental. A read-only counter, not a knob.
  size_t fitted_windows = 0;

  /// Predicted cost vector (one value per metric) for feature vector x.
  StatusOr<Vector> Predict(const Vector& x) const;

  /// Batched Predict: one cost row per feature row of X, one column per
  /// metric. Each value is the same intercept-seeded dot product
  /// (OlsModel::PredictBatch) Predict computes, so row r equals
  /// Predict(X.Row(r)) bit for bit on every SIMD tier.
  StatusOr<Matrix> PredictBatch(const Matrix& X) const;
};

/// \brief DREAM — the paper's core contribution (Algorithm 1,
/// EstimateCostValue).
///
/// Fits one Multiple Linear Regression per cost metric over the *newest* m
/// observations of a training set, growing m one observation at a time from
/// the statistical minimum m = L + 2 until every metric's R² reaches
/// r2_require or m hits M_max / end of history. Keeping m small both speeds
/// up the estimation of the thousands of equivalent QEPs a cloud federation
/// generates (Example 3.1) and avoids training on expired measurements in a
/// drifting environment.
class Dream {
 public:
  explicit Dream(DreamOptions options = DreamOptions());

  const DreamOptions& options() const { return options_; }

  /// Algorithm 1. Fails if r2_require is NaN or the history holds fewer
  /// than L + 2 observations.
  StatusOr<DreamEstimate> EstimateCostValue(const TrainingSet& history) const;

  /// Convenience: estimate then predict the cost vector of x.
  StatusOr<Vector> PredictCosts(const TrainingSet& history,
                                const Vector& x) const;

  /// Batched PredictCosts: runs Algorithm 1 *once* and scores every row of
  /// X against the fitted window (one row of costs per feature row, one
  /// column per metric). This is the amortisation batch callers rely on —
  /// the per-row path re-runs the window growth for every candidate.
  StatusOr<Matrix> PredictCostsBatch(const TrainingSet& history,
                                     const Matrix& X) const;

  /// The "new training set" output of Figure 2: the chosen window copied
  /// into a fresh TrainingSet, which the Modelling module can train on
  /// instead of the full history.
  StatusOr<TrainingSet> MakeReducedTrainingSet(
      const TrainingSet& history) const;

 private:
  StatusOr<DreamEstimate> EstimateIncremental(const TrainingSet& history,
                                              size_t m_min,
                                              size_t m_cap) const;
  StatusOr<DreamEstimate> EstimateBatch(const TrainingSet& history,
                                        size_t m_min, size_t m_cap) const;

  /// Shared epilogue of one window attempt: records R² per metric and the
  /// convergence verdict against r2_require.
  DreamEstimate MakeWindowEstimate(std::vector<OlsModel> models,
                                   size_t window_size,
                                   size_t fitted_windows) const;

  /// The statistic Algorithm 1 stops on: R², or adjusted R² when
  /// use_adjusted_r2.
  double StoppingR2(const OlsModel& model) const {
    return options_.use_adjusted_r2 ? model.adjusted_r_squared()
                                    : model.r_squared();
  }

  /// Algorithm 1's per-metric stopping test. Written as r2 >= r2_require,
  /// so a NaN R² never counts as reaching the requirement.
  bool Reaches(double r2) const { return r2 >= options_.r2_require; }

  DreamOptions options_;
};

}  // namespace midas

#endif  // MIDAS_REGRESSION_DREAM_H_

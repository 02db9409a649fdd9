#include "regression/dream.h"

#include <algorithm>
#include <cmath>

#include "regression/incremental_ols.h"

namespace midas {

StatusOr<Vector> DreamEstimate::Predict(const Vector& x) const {
  if (models.empty()) {
    return Status::FailedPrecondition("DREAM estimate holds no models");
  }
  Vector out;
  out.reserve(models.size());
  for (const OlsModel& model : models) {
    MIDAS_ASSIGN_OR_RETURN(double c, model.Predict(x));
    out.push_back(c);
  }
  return out;
}

StatusOr<Matrix> DreamEstimate::PredictBatch(const Matrix& X) const {
  if (models.empty()) {
    return Status::FailedPrecondition("DREAM estimate holds no models");
  }
  Matrix out(X.rows(), models.size());
  Vector column;
  for (size_t m = 0; m < models.size(); ++m) {
    MIDAS_RETURN_IF_ERROR(models[m].PredictBatch(X, &column));
    for (size_t r = 0; r < X.rows(); ++r) out.RowData(r)[m] = column[r];
  }
  return out;
}

Dream::Dream(DreamOptions options) : options_(std::move(options)) {}

StatusOr<DreamEstimate> Dream::EstimateCostValue(
    const TrainingSet& history) const {
  if (std::isnan(options_.r2_require)) {
    // No R² compares with NaN: without this the scan would have no
    // well-defined stopping point.
    return Status::InvalidArgument("DREAM r2_require is NaN");
  }
  const size_t l = history.num_features();
  const size_t m_min = l + 2;  // smallest statistically valid window
  if (history.num_metrics() == 0) {
    return Status::InvalidArgument("training set declares no cost metrics");
  }
  if (history.size() < m_min) {
    return Status::FailedPrecondition(
        "DREAM needs at least L + 2 = " + std::to_string(m_min) +
        " observations, have " + std::to_string(history.size()));
  }
  size_t m_cap = options_.m_max == 0 ? history.size() : options_.m_max;
  m_cap = std::min(m_cap, history.size());
  m_cap = std::max(m_cap, m_min);

  StatusOr<DreamEstimate> best =
      options_.engine == DreamEngine::kBatch
          ? EstimateBatch(history, m_min, m_cap)
          : EstimateIncremental(history, m_min, m_cap);
  if (best.ok() && best->models.empty()) {
    return Status::Internal(
        "DREAM could not fit any window (degenerate history)");
  }
  return best;
}

DreamEstimate Dream::MakeWindowEstimate(std::vector<OlsModel> models,
                                        size_t window_size,
                                        size_t fitted_windows) const {
  DreamEstimate est;
  est.window_size = window_size;
  est.fitted_windows = fitted_windows;
  est.r_squared.reserve(models.size());
  bool all_reach = true;
  for (const OlsModel& model : models) {
    const double r2 = StoppingR2(model);
    est.r_squared.push_back(r2);
    if (!Reaches(r2)) all_reach = false;
  }
  est.converged = all_reach;
  est.models = std::move(models);
  return est;
}

namespace {

// The reference engine's window fit: batch FitOls per metric over a copy
// of the window; false when any metric's fit fails (degenerate window —
// the caller keeps growing).
bool FitWindowBatch(const TrainingWindow& window, size_t n_metrics,
                    const OlsOptions& options, std::vector<OlsModel>* out) {
  out->clear();
  const std::vector<Vector> xs = window.CopyFeatures();
  for (size_t metric = 0; metric < n_metrics; ++metric) {
    auto fit = FitOls(xs, window.CopyCosts(metric), options);
    if (!fit.ok()) return false;
    out->push_back(std::move(fit).ValueOrDie());
  }
  return true;
}

}  // namespace

StatusOr<DreamEstimate> Dream::EstimateIncremental(const TrainingSet& history,
                                                   size_t m_min,
                                                   size_t m_cap) const {
  const size_t n_metrics = history.num_metrics();
  MIDAS_ASSIGN_OR_RETURN(TrainingWindow window, history.RecentWindow(m_cap));
  std::vector<OlsModel> models;
  size_t m = m_min;
  size_t fitted = 0;
  {
    // window.at(0) is the *oldest* observation any window up to the cap
    // can use; the window of size m covers indices [m_cap - m, m_cap). A
    // least-squares fit does not depend on row order, so growing m by one
    // feeds the engine the next *older* observation — each exactly once.
    IncrementalOls engine(history.num_features(), n_metrics);
    for (size_t i = m_cap - m_min; i < m_cap; ++i) {
      MIDAS_RETURN_IF_ERROR(engine.Add(window.features(i), window.at(i).costs));
    }
    // FitAll's SSE is the residual the rotations split off plus squares,
    // and R² is non-increasing in SSE, so a window where some metric's
    // bound misses r2_require cannot converge: its fit is one Algorithm 1
    // would build and throw away. Only the windows every bound admits, and
    // the cap (returned when nothing converges), are fitted.
    auto bounds_admit = [&] {
      for (size_t metric = 0; metric < n_metrics; ++metric) {
        if (!Reaches(engine.RSquaredBound(metric, options_.use_adjusted_r2))) {
          return false;
        }
      }
      return true;
    };
    auto fit_reaches = [&] {
      return std::all_of(models.begin(), models.end(),
                         [&](const OlsModel& model) {
                           return Reaches(StoppingR2(model));
                         });
    };
    for (;; ++m) {
      if (m > m_min) {
        const size_t next_older = m_cap - m;
        MIDAS_RETURN_IF_ERROR(engine.Add(window.features(next_older),
                                         window.at(next_older).costs));
      }
      if (m < m_cap && !bounds_admit()) continue;
      // FitAll cannot fail here: m >= L + 2, and the intercept column's
      // norm sqrt(m) >= 1 keeps the pivoted QR's rank at 1 or more. So no
      // window is degenerate, and the fit at the cap is the one Algorithm 1
      // returns when the R² requirement is met nowhere.
      MIDAS_RETURN_IF_ERROR(engine.FitAll(&models));
      ++fitted;
      if (m == m_cap || fit_reaches()) break;
    }
  }
  // The engine's scratch buffers are released before the estimate, which
  // outlives this call in the snapshot's memo, makes its last allocations.
  return MakeWindowEstimate(std::move(models), m, fitted);
}

StatusOr<DreamEstimate> Dream::EstimateBatch(const TrainingSet& history,
                                             size_t m_min,
                                             size_t m_cap) const {
  const size_t n_metrics = history.num_metrics();
  DreamEstimate best;
  size_t fitted = 0;
  for (size_t m = m_min; m <= m_cap; ++m) {
    MIDAS_ASSIGN_OR_RETURN(TrainingWindow window, history.RecentWindow(m));
    std::vector<OlsModel> models;
    ++fitted;
    if (!FitWindowBatch(window, n_metrics, options_.ols, &models)) {
      continue;  // degenerate window: keep growing
    }
    best = MakeWindowEstimate(std::move(models), m, fitted);
    if (best.converged) return best;
  }
  // R² requirement not met anywhere up to the cap: Algorithm 1 returns the
  // models at the largest window tried.
  return best;
}

StatusOr<Vector> Dream::PredictCosts(const TrainingSet& history,
                                     const Vector& x) const {
  MIDAS_ASSIGN_OR_RETURN(DreamEstimate est, EstimateCostValue(history));
  return est.Predict(x);
}

StatusOr<Matrix> Dream::PredictCostsBatch(const TrainingSet& history,
                                          const Matrix& X) const {
  MIDAS_ASSIGN_OR_RETURN(DreamEstimate est, EstimateCostValue(history));
  return est.PredictBatch(X);
}

StatusOr<TrainingSet> Dream::MakeReducedTrainingSet(
    const TrainingSet& history) const {
  MIDAS_ASSIGN_OR_RETURN(DreamEstimate est, EstimateCostValue(history));
  TrainingSet reduced(history.feature_names(), history.metric_names());
  const size_t start = history.size() - est.window_size;
  for (size_t i = start; i < history.size(); ++i) {
    MIDAS_RETURN_IF_ERROR(reduced.Add(history.at(i)));
  }
  return reduced;
}

}  // namespace midas

#include "ires/modelling.h"

#include <algorithm>
#include <cmath>

namespace midas {

namespace {

/// Costs are physical quantities; an extrapolating model can go negative
/// on out-of-hull feature points, which no caller can use. A non-finite
/// cost fails closed: clamped, a NaN would become 0.0 (std::max returns
/// its first argument when the comparison is false) and look free to
/// Algorithm 2.
Status ClampCost(double* cost) {
  if (!std::isfinite(*cost)) {
    return Status::FailedPrecondition(
        "estimator predicted a non-finite cost (non-finite history?)");
  }
  *cost = std::max(0.0, *cost);
  return Status::OK();
}

Status ClampCosts(Vector* costs) {
  for (double& c : *costs) MIDAS_RETURN_IF_ERROR(ClampCost(&c));
  return Status::OK();
}

Status ClampCosts(Matrix* costs) {
  for (size_t r = 0; r < costs->rows(); ++r) {
    double* row = costs->RowData(r);
    for (size_t m = 0; m < costs->cols(); ++m) {
      MIDAS_RETURN_IF_ERROR(ClampCost(&row[m]));
    }
  }
  return Status::OK();
}

}  // namespace

EstimatorConfig EstimatorConfig::DreamDefault() {
  EstimatorConfig cfg;
  cfg.kind = EstimatorKind::kDream;
  return cfg;
}

EstimatorConfig EstimatorConfig::Bml(WindowPolicy window) {
  EstimatorConfig cfg;
  cfg.kind = EstimatorKind::kBml;
  cfg.window = window;
  return cfg;
}

std::string EstimatorName(const EstimatorConfig& config) {
  if (config.kind == EstimatorKind::kDream) return "DREAM";
  return WindowPolicyName(config.window);
}

Modelling::Modelling(std::vector<std::string> feature_names,
                     std::vector<std::string> metric_names, uint64_t seed)
    : publisher_(std::move(feature_names), std::move(metric_names)) {
  selector_.AddDefaultCandidates(seed);
}

Status Modelling::Record(const std::string& scope, Observation observation) {
  return publisher_.Record(scope, std::move(observation));
}

Status Modelling::RecordBatch(
    std::vector<SnapshotPublisher::ScopedObservation> batch,
    uint64_t* published_epoch) {
  return publisher_.RecordBatch(std::move(batch), published_epoch);
}

StatusOr<Vector> Modelling::Predict(const EstimatorSnapshot& snapshot,
                                    const std::string& scope, const Vector& x,
                                    const EstimatorConfig& config) const {
  if (x.size() != snapshot.num_features()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  StatusOr<Vector> prediction = [&]() -> StatusOr<Vector> {
    if (config.kind == EstimatorKind::kDream) {
      MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const DreamEstimate> fit,
                             snapshot.DreamFit(scope, config.dream));
      return fit->Predict(x);
    }
    MIDAS_ASSIGN_OR_RETURN(
        std::shared_ptr<const BmlScopeFit> fit,
        snapshot.BmlFit(scope, WindowPolicyName(config.window),
                        [&](const TrainingSet& set) {
                          return FitBml(set, config.window);
                        }));
    Vector out(snapshot.num_metrics(), 0.0);
    for (size_t metric = 0; metric < fit->learners.size(); ++metric) {
      MIDAS_ASSIGN_OR_RETURN(out[metric], fit->learners[metric]->Predict(x));
    }
    return out;
  }();
  if (!prediction.ok()) return prediction;
  MIDAS_RETURN_IF_ERROR(ClampCosts(&*prediction));
  return prediction;
}

StatusOr<Matrix> Modelling::PredictBatch(const EstimatorSnapshot& snapshot,
                                         const std::string& scope,
                                         const Matrix& X,
                                         const EstimatorConfig& config) const {
  if (X.cols() != snapshot.num_features()) {
    return Status::InvalidArgument("feature arity mismatch");
  }
  StatusOr<Matrix> prediction = [&]() -> StatusOr<Matrix> {
    if (config.kind == EstimatorKind::kDream) {
      MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const DreamEstimate> fit,
                             snapshot.DreamFit(scope, config.dream));
      return fit->PredictBatch(X);
    }
    MIDAS_ASSIGN_OR_RETURN(
        std::shared_ptr<const BmlScopeFit> fit,
        snapshot.BmlFit(scope, WindowPolicyName(config.window),
                        [&](const TrainingSet& set) {
                          return FitBml(set, config.window);
                        }));
    // Serving path: per-thread column and learner workspace, reused
    // across batches and metrics.
    thread_local Vector column;
    thread_local PredictWorkspace workspace;
    Matrix out(X.rows(), snapshot.num_metrics());
    for (size_t metric = 0; metric < fit->learners.size(); ++metric) {
      MIDAS_RETURN_IF_ERROR(
          fit->learners[metric]->PredictBatch(X, &column, &workspace));
      for (size_t r = 0; r < X.rows(); ++r) out(r, metric) = column[r];
    }
    return out;
  }();
  if (!prediction.ok()) return prediction;
  MIDAS_RETURN_IF_ERROR(ClampCosts(&*prediction));
  return prediction;
}

StatusOr<BmlScopeFit> Modelling::FitBml(const TrainingSet& set,
                                        WindowPolicy window) const {
  const size_t base = set.num_features() + 2;
  const size_t m = WindowSizeFor(window, base, set.size());
  if (m < base) {
    return Status::FailedPrecondition(
        "history smaller than the base window N");
  }
  MIDAS_ASSIGN_OR_RETURN(std::vector<Vector> xs, set.RecentFeatures(m));
  BmlScopeFit fit;
  fit.learners.reserve(set.num_metrics());
  fit.names.reserve(set.num_metrics());
  for (size_t metric = 0; metric < set.num_metrics(); ++metric) {
    MIDAS_ASSIGN_OR_RETURN(Vector ys, set.RecentCosts(m, metric));
    MIDAS_ASSIGN_OR_RETURN(SelectedModel model, selector_.SelectBest(xs, ys));
    fit.learners.emplace_back(std::move(model.learner));
    fit.names.push_back(std::move(model.name));
  }
  return fit;
}

StatusOr<DreamEstimate> Modelling::DreamDiagnostics(
    const EstimatorSnapshot& snapshot, const std::string& scope,
    const DreamOptions& options) const {
  MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const DreamEstimate> fit,
                         snapshot.DreamFit(scope, options));
  return *fit;
}

}  // namespace midas

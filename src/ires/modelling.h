#ifndef MIDAS_IRES_MODELLING_H_
#define MIDAS_IRES_MODELLING_H_

#include <memory>
#include <string>
#include <vector>

#include "ires/history.h"
#include "ires/snapshot.h"
#include "ml/model_selection.h"
#include "regression/dream.h"

namespace midas {

/// Which estimator the Modelling module uses for a prediction.
enum class EstimatorKind {
  /// The paper's contribution: incremental MLR window sized by R².
  kDream,
  /// IReS baseline: Best-ML model over an observation window.
  kBml,
};

/// \brief Configuration of one prediction request.
struct EstimatorConfig {
  EstimatorKind kind = EstimatorKind::kDream;
  /// DREAM parameters (kind == kDream).
  DreamOptions dream;
  /// BML observation window (kind == kBml); the base window N is L + 2.
  WindowPolicy window = WindowPolicy::kAll;

  static EstimatorConfig DreamDefault();
  static EstimatorConfig Bml(WindowPolicy window);
};

/// Human-readable estimator label ("DREAM", "BML_N", ...).
std::string EstimatorName(const EstimatorConfig& config);

/// \brief The IReS Modelling module with DREAM integrated (Figure 2):
/// stores execution feedback per scope and answers multi-metric cost
/// predictions with either DREAM or the BML baseline.
///
/// Storage is owned by a SnapshotPublisher, splitting the read path from
/// the write path: Record applies feedback through the publisher (one
/// published epoch per batch), while readers pin an immutable
/// EstimatorSnapshot via Snapshot() and predict against it. Predictions
/// have one path: every Predict/PredictBatch/DreamDiagnostics call takes
/// the pinned snapshot, so a single-threaded caller pins one too.
class Modelling {
 public:
  /// \param feature_names regression variables (see ires/features.h)
  /// \param metric_names cost metrics, e.g., {"seconds", "dollars"}
  Modelling(std::vector<std::string> feature_names,
            std::vector<std::string> metric_names, uint64_t seed = 31);

  /// Writer-side live history, read-only: every write goes through
  /// Record/RecordBatch, which publishes it.
  const History& history() const { return publisher_.history(); }

  /// The estimator state's publication point (epoch inspection, batched
  /// Record, reader pinning).
  SnapshotPublisher& publisher() { return publisher_; }
  const SnapshotPublisher& publisher() const { return publisher_; }

  /// Pins the current estimator snapshot for one optimization pass.
  std::shared_ptr<const EstimatorSnapshot> Snapshot() const {
    return publisher_.Acquire();
  }

  size_t num_metrics() const { return history().metric_names().size(); }
  size_t num_features() const { return history().feature_names().size(); }

  /// The smallest statistically valid window N = L + 2.
  size_t BaseWindow() const { return num_features() + 2; }

  /// Records one execution observation for a scope and publishes the
  /// successor snapshot (epoch + 1).
  Status Record(const std::string& scope, Observation observation);

  /// Records a whole feedback batch under ONE published epoch; when
  /// `published_epoch` is non-null it receives the epoch the batch is
  /// visible under (see SnapshotPublisher::RecordBatch).
  Status RecordBatch(std::vector<SnapshotPublisher::ScopedObservation> batch,
                     uint64_t* published_epoch = nullptr);

  /// Predicts the full cost vector of feature point `x` for `scope`
  /// against a pinned snapshot: safe under concurrent Record traffic. Fits
  /// are memoised inside the snapshot, so thousands of predictions per
  /// epoch fit DREAM/BML once. Negative costs clamp to 0; a non-finite
  /// cost (e.g. from a NaN recorded into the history) fails with
  /// FailedPrecondition on Predict and PredictBatch instead of reaching the
  /// optimizer.
  StatusOr<Vector> Predict(const EstimatorSnapshot& snapshot,
                           const std::string& scope, const Vector& x,
                           const EstimatorConfig& config) const;

  /// Batched Predict: one cost row per feature row of X (columns in metric
  /// order) from the snapshot's one memoised fit. DREAM scores each row
  /// with Predict's own dot product, so row r equals
  /// Predict(snapshot, scope, X.Row(r), config) bit for bit on every SIMD
  /// tier. BML calls each metric's selected learner's vectorised
  /// PredictBatch: bit-identical under the scalar tier, within the SIMD
  /// layer's 1e-12 relative policy otherwise (linalg/simd.h).
  StatusOr<Matrix> PredictBatch(const EstimatorSnapshot& snapshot,
                                const std::string& scope, const Matrix& X,
                                const EstimatorConfig& config) const;

  /// DREAM diagnostic: the estimate (window size, per-metric R²) a kDream
  /// prediction for this scope uses at the snapshot's epoch.
  StatusOr<DreamEstimate> DreamDiagnostics(const EstimatorSnapshot& snapshot,
                                           const std::string& scope,
                                           const DreamOptions& options) const;

 private:
  /// Deterministic BML fit over the set's window — the snapshot memo's
  /// fitter: one ModelSelector winner per metric.
  StatusOr<BmlScopeFit> FitBml(const TrainingSet& set,
                               WindowPolicy window) const;

  SnapshotPublisher publisher_;
  ModelSelector selector_;
};

}  // namespace midas

#endif  // MIDAS_IRES_MODELLING_H_

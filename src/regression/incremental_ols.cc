#include "regression/incremental_ols.h"

#include <algorithm>
#include <cmath>

#include "linalg/decomposition.h"

namespace midas {

IncrementalOls::IncrementalOls(size_t num_features, size_t num_metrics)
    : num_features_(num_features),
      num_metrics_(num_metrics),
      r_(num_features + 1, num_features + 1),
      heads_(num_features + 1, num_metrics),
      rss_(num_metrics, 0.0),
      mean_y_(num_metrics, 0.0),
      m2_y_(num_metrics, 0.0),
      sum_yy_(num_metrics, 0.0),
      design_row_(num_features + 1, 0.0),
      y_(num_metrics, 0.0) {}

Status IncrementalOls::Add(const Vector& features, const Vector& costs) {
  if (features.size() != num_features_) {
    return Status::InvalidArgument("observation feature arity mismatch");
  }
  if (costs.size() != num_metrics_) {
    return Status::InvalidArgument("observation metric arity mismatch");
  }
  ++num_observations_;
  const double count = static_cast<double>(num_observations_);
  for (size_t metric = 0; metric < num_metrics_; ++metric) {
    const double y = costs[metric];
    const double delta = y - mean_y_[metric];
    mean_y_[metric] += delta / count;
    m2_y_[metric] += delta * (y - mean_y_[metric]);
    sum_yy_[metric] += y * y;
  }

  design_row_[0] = 1.0;
  std::copy(features.begin(), features.end(), design_row_.begin() + 1);
  std::copy(costs.begin(), costs.end(), y_.begin());
  // Rotation j zeroes the row's entry j against R(j, j); the same rotation
  // carries each metric's y into its head entry j. What is left of y once
  // the row is gone is that metric's residual.
  const size_t p = num_features_ + 1;
  for (size_t j = 0; j < p; ++j) {
    const double b = design_row_[j];
    if (b == 0.0) continue;
    double* r = r_.RowData(j);
    // Both entries are at most a column norm of the window, far below
    // overflow, so the plain root is safe and much cheaper than std::hypot.
    const double h = std::sqrt(r[j] * r[j] + b * b);
    const double c = r[j] / h;
    const double s = b / h;
    r[j] = h;
    for (size_t l = j + 1; l < p; ++l) {
      const double t = r[l];
      r[l] = c * t + s * design_row_[l];
      design_row_[l] = c * design_row_[l] - s * t;
    }
    double* head = heads_.RowData(j);
    for (size_t metric = 0; metric < num_metrics_; ++metric) {
      const double t = head[metric];
      head[metric] = c * t + s * y_[metric];
      y_[metric] = c * y_[metric] - s * t;
    }
  }
  for (size_t metric = 0; metric < num_metrics_; ++metric) {
    rss_[metric] += y_[metric] * y_[metric];
  }
  return Status::OK();
}

void IncrementalOls::Reset() {
  num_observations_ = 0;
  r_.Resize(num_features_ + 1, num_features_ + 1);
  heads_.Resize(num_features_ + 1, num_metrics_);
  for (Vector* v : {&rss_, &mean_y_, &m2_y_, &sum_yy_}) {
    std::fill(v->begin(), v->end(), 0.0);
  }
}

Status IncrementalOls::FitAll(std::vector<OlsModel>* out) const {
  out->clear();
  const size_t m = num_observations_;
  if (m < num_features_ + 2) {
    return Status::FailedPrecondition(
        "need at least L + 2 observations to fit an MLR with L variables");
  }
  // ‖X β − y‖² = ‖R β − z‖² + rss, so the window's least-squares problem
  // is R's: reduce a copy (the factor keeps growing after this fit) with
  // every metric's head riding along as a right-hand side.
  reduced_r_ = r_;
  reduced_heads_ = heads_;
  const size_t rank =
      PivotedQrInPlace(&reduced_r_, &reduced_heads_, &permutation_);
  if (rank == 0) {
    return Status::FailedPrecondition("window design matrix is zero");
  }
  out->reserve(num_metrics_);
  for (size_t metric = 0; metric < num_metrics_; ++metric) {
    Vector beta;
    PivotedBackSolve(reduced_r_, reduced_heads_, metric, permutation_, rank,
                     &beta);
    // The basic solution leaves the dropped tail of the reduced head on
    // top of the residual the rotations split off.
    double sse = rss_[metric];
    for (size_t i = rank; i <= num_features_; ++i) {
      sse += reduced_heads_.At(i, metric) * reduced_heads_.At(i, metric);
    }
    out->emplace_back(std::move(beta), sse, m2_y_[metric], m,
                      sum_yy_[metric]);
  }
  return Status::OK();
}

double IncrementalOls::RSquaredBound(size_t metric, bool adjusted) const {
  // FitAll's SSE starts from rss_[metric] and only adds squares, so it is
  // >= rss_[metric] in IEEE arithmetic; the statistics are FitAll's.
  return OlsModel::RSquaredOf(rss_[metric], m2_y_[metric], num_observations_,
                              num_features_, sum_yy_[metric], adjusted);
}

}  // namespace midas

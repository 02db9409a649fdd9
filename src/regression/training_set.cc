#include "regression/training_set.h"

#include <algorithm>
#include <cmath>

namespace midas {

namespace {
/// First buffer size; small histories are common in tests and the drift
/// experiments trim aggressively.
constexpr size_t kInitialCapacity = 16;

bool AllFinite(const Vector& values) {
  return std::all_of(values.begin(), values.end(),
                     [](double v) { return std::isfinite(v); });
}
}  // namespace

TrainingWindow TrainingWindow::Newest(size_t m) const {
  MIDAS_CHECK(m <= count_) << "sub-window larger than window";
  return TrainingWindow(data_ + (count_ - m), m, owner_, generation_);
}

TrainingSet::TrainingSet(std::vector<std::string> feature_names,
                         std::vector<std::string> metric_names)
    : feature_names_(std::move(feature_names)),
      metric_names_(std::move(metric_names)) {}

void TrainingSet::Reallocate(size_t min_capacity) {
  auto grown = std::make_shared<Buffer>(
      std::max({min_capacity, count_ * 2, kInitialCapacity}));
  for (size_t i = 0; i < count_; ++i) grown->slots[i] = buffer_->slots[i];
  grown->committed.store(count_, std::memory_order_relaxed);
  buffer_ = std::move(grown);
}

Status TrainingSet::Add(Observation obs) {
  if (obs.features.size() != num_features()) {
    return Status::InvalidArgument("observation feature arity mismatch");
  }
  if (obs.costs.size() != num_metrics()) {
    return Status::InvalidArgument("observation metric arity mismatch");
  }
  // A NaN cost would make every R² NaN, and Algorithm 1's R² < R²_require
  // test is false for NaN, so the first window would "converge".
  if (!AllFinite(obs.features) || !AllFinite(obs.costs)) {
    return Status::InvalidArgument("observation has a non-finite value");
  }
  if (count_ > 0 && obs.timestamp < at(count_ - 1).timestamp) {
    return Status::InvalidArgument(
        "observations must be appended in timestamp order");
  }
  if (buffer_ == nullptr) {
    buffer_ = std::make_shared<Buffer>(kInitialCapacity);
  }
  // Claim slot count_ of the shared buffer via the committed high-water
  // mark. Losing the race means a sibling copy (an earlier fork of this
  // history) already extended the buffer past our length, so our append
  // must diverge into a fresh buffer; frozen copies are never affected
  // either way, because slots below their length are immutable.
  size_t expected = count_;
  if (count_ == buffer_->slots.size() ||
      !buffer_->committed.compare_exchange_strong(expected, count_ + 1,
                                                  std::memory_order_acq_rel)) {
    Reallocate(count_ + 1);
    buffer_->committed.store(count_ + 1, std::memory_order_relaxed);
  }
  buffer_->slots[count_] = std::move(obs);
  ++count_;
  ++generation_;
  return Status::OK();
}

Status TrainingSet::Add(Vector features, Vector costs) {
  Observation obs;
  obs.timestamp = count_ == 0 ? 0 : latest_timestamp() + 1;
  obs.features = std::move(features);
  obs.costs = std::move(costs);
  return Add(std::move(obs));
}

int64_t TrainingSet::latest_timestamp() const {
  return count_ == 0 ? 0 : at(count_ - 1).timestamp;
}

std::vector<Vector> TrainingWindow::CopyFeatures() const {
  CheckFresh();
  std::vector<Vector> out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) out.push_back(data_[i].features);
  return out;
}

Vector TrainingWindow::CopyCosts(size_t metric) const {
  CheckFresh();
  Vector out;
  out.reserve(count_);
  for (size_t i = 0; i < count_; ++i) out.push_back(data_[i].costs[metric]);
  return out;
}

StatusOr<TrainingWindow> TrainingSet::RecentWindow(size_t m) const {
  if (m > size()) {
    return Status::OutOfRange("window larger than history");
  }
  return TrainingWindow(buffer_ == nullptr
                            ? nullptr
                            : buffer_->slots.data() + (size() - m),
                        m, this, generation_);
}

StatusOr<std::vector<Vector>> TrainingSet::RecentFeatures(size_t m) const {
  if (m > size()) {
    return Status::OutOfRange("window larger than history");
  }
  std::vector<Vector> out;
  out.reserve(m);
  for (size_t i = size() - m; i < size(); ++i) {
    out.push_back(at(i).features);
  }
  return out;
}

StatusOr<Vector> TrainingSet::RecentCosts(size_t m,
                                          size_t metric_index) const {
  if (m > size()) {
    return Status::OutOfRange("window larger than history");
  }
  if (metric_index >= num_metrics()) {
    return Status::OutOfRange("metric index out of range");
  }
  Vector out;
  out.reserve(m);
  for (size_t i = size() - m; i < size(); ++i) {
    out.push_back(at(i).costs[metric_index]);
  }
  return out;
}

void TrainingSet::TrimToNewest(size_t keep) {
  if (keep >= size()) return;
  auto kept = std::make_shared<Buffer>(std::max(keep, kInitialCapacity));
  for (size_t i = 0; i < keep; ++i) {
    kept->slots[i] = buffer_->slots[count_ - keep + i];
  }
  kept->committed.store(keep, std::memory_order_relaxed);
  buffer_ = std::move(kept);
  count_ = keep;
  ++generation_;
}

void TrainingSet::EvictOlderThan(int64_t cutoff) {
  size_t first_kept = 0;
  while (first_kept < count_ && at(first_kept).timestamp < cutoff) {
    ++first_kept;
  }
  if (first_kept == 0) return;
  TrimToNewest(count_ - first_kept);
}

}  // namespace midas

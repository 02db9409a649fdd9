#include "ires/snapshot.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <utility>

namespace midas {

namespace {

bool SameBits(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

/// Memo identity of a DreamOptions configuration: every field that can
/// change the fitted models takes part, doubles compared bit for bit so
/// distinct configurations (0.0 and -0.0 included) never share a fit.
bool SameDreamOptions(const DreamOptions& a, const DreamOptions& b) {
  return SameBits(a.r2_require, b.r2_require) && a.m_max == b.m_max &&
         a.use_adjusted_r2 == b.use_adjusted_r2 && a.engine == b.engine &&
         SameBits(a.ols.ridge_fallback, b.ols.ridge_fallback);
}

}  // namespace

size_t EstimatorSnapshot::BucketOf(const std::string& scope) {
  return std::hash<std::string>{}(scope) % kBuckets;
}

bool EstimatorSnapshot::SharesDirectoryWith(const EstimatorSnapshot& other,
                                            size_t index) const {
  return directories_[index] == other.directories_[index];
}

bool EstimatorSnapshot::SharesBucketWith(const EstimatorSnapshot& other,
                                         size_t index) const {
  return BucketAt(index) == other.BucketAt(index);
}

const EstimatorSnapshot::Bucket* EstimatorSnapshot::BucketAt(
    size_t index) const {
  const Directory* directory =
      directories_[index / kBucketsPerDirectory].get();
  if (directory == nullptr) return nullptr;
  return (*directory)[index % kBucketsPerDirectory].get();
}

const EstimatorSnapshot::ScopeState* EstimatorSnapshot::Lookup(
    const std::string& scope) const {
  const Bucket* bucket = BucketAt(BucketOf(scope));
  if (bucket == nullptr) return nullptr;
  auto it = std::lower_bound(
      bucket->begin(), bucket->end(), scope,
      [](const Bucket::value_type& entry, const std::string& name) {
        return entry.first < name;
      });
  if (it == bucket->end() || it->first != scope) return nullptr;
  return it->second.get();
}

StatusOr<const EstimatorSnapshot::ScopeState*> EstimatorSnapshot::Find(
    const std::string& scope) const {
  const ScopeState* state = Lookup(scope);
  if (state == nullptr) {
    return Status::NotFound("no history for scope: " + scope);
  }
  return state;
}

StatusOr<const TrainingSet*> EstimatorSnapshot::Window(
    const std::string& scope) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  return &state->frozen;
}

size_t EstimatorSnapshot::SizeOf(const std::string& scope) const {
  const ScopeState* state = Lookup(scope);
  return state == nullptr ? 0 : state->frozen.size();
}

std::vector<std::string> EstimatorSnapshot::Scopes() const {
  std::vector<std::string> out;
  for (const std::shared_ptr<const Directory>& directory : directories_) {
    if (directory == nullptr) continue;
    for (const std::shared_ptr<const Bucket>& bucket : *directory) {
      if (bucket == nullptr) continue;
      for (const auto& [name, unused] : *bucket) out.push_back(name);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

void EstimatorSnapshot::RebuildBuckets(const History& live,
                                       std::vector<std::string> scopes) {
  // Group the scopes by bucket, each group sorted by name, so every
  // touched bucket is rebuilt by one linear merge.
  std::vector<std::pair<size_t, std::string>> keyed;
  keyed.reserve(scopes.size());
  for (std::string& scope : scopes) {
    const size_t bucket = BucketOf(scope);
    keyed.emplace_back(bucket, std::move(scope));
  }
  std::sort(keyed.begin(), keyed.end());
  keyed.erase(std::unique(keyed.begin(), keyed.end()), keyed.end());
  static const Bucket kEmpty;
  // Each touched directory is copied once, on its first touched bucket.
  std::array<std::shared_ptr<Directory>, kDirectories> copies;
  for (size_t begin = 0, end = 0; begin < keyed.size(); begin = end) {
    const size_t index = keyed[begin].first;
    while (end < keyed.size() && keyed[end].first == index) ++end;
    std::shared_ptr<Directory>& directory =
        copies[index / kBucketsPerDirectory];
    if (directory == nullptr) {
      const Directory* published =
          directories_[index / kBucketsPerDirectory].get();
      directory = published ? std::make_shared<Directory>(*published)
                            : std::make_shared<Directory>();
    }
    std::shared_ptr<const Bucket>& slot =
        (*directory)[index % kBucketsPerDirectory];
    const Bucket& old = slot ? *slot : kEmpty;
    auto rebuilt = std::make_shared<Bucket>();
    rebuilt->reserve(old.size() + (end - begin));
    auto kept = old.begin();
    for (size_t i = begin; i < end; ++i) {
      const std::string& scope = keyed[i].second;
      auto live_set = live.Get(scope);
      if (!live_set.ok()) continue;  // validation failure created no set
      for (; kept != old.end() && kept->first < scope; ++kept) {
        rebuilt->push_back(*kept);
      }
      if (kept != old.end() && kept->first == scope) ++kept;  // superseded
      // O(1) frozen copy: shares the observation buffer.
      rebuilt->emplace_back(scope,
                            std::make_shared<const ScopeState>(**live_set));
    }
    rebuilt->insert(rebuilt->end(), kept, old.end());
    slot = std::move(rebuilt);
  }
  for (size_t d = 0; d < kDirectories; ++d) {
    if (copies[d] != nullptr) directories_[d] = std::move(copies[d]);
  }
}

StatusOr<std::shared_ptr<const DreamEstimate>> EstimatorSnapshot::DreamFit(
    const std::string& scope, const DreamOptions& options) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  std::lock_guard<std::mutex> lock(state->fit_mutex);
  for (const auto& [fitted_options, fit] : state->dream_fits) {
    if (SameDreamOptions(fitted_options, options)) return fit;
  }
  Dream dream(options);
  MIDAS_ASSIGN_OR_RETURN(DreamEstimate estimate,
                         dream.EstimateCostValue(state->frozen));
  auto shared = std::make_shared<const DreamEstimate>(std::move(estimate));
  state->dream_fits.emplace_back(options, shared);
  return shared;
}

StatusOr<std::shared_ptr<const BmlScopeFit>> EstimatorSnapshot::BmlFit(
    const std::string& scope, const std::string& key,
    const BmlFitter& fitter) const {
  MIDAS_ASSIGN_OR_RETURN(const ScopeState* state, Find(scope));
  std::lock_guard<std::mutex> lock(state->fit_mutex);
  auto it = state->bml_fits.find(key);
  if (it != state->bml_fits.end()) return it->second;
  MIDAS_ASSIGN_OR_RETURN(BmlScopeFit fit, fitter(state->frozen));
  auto shared = std::make_shared<const BmlScopeFit>(std::move(fit));
  state->bml_fits.emplace(key, shared);
  return shared;
}

SnapshotPublisher::SnapshotPublisher(std::vector<std::string> feature_names,
                                     std::vector<std::string> metric_names)
    : live_(feature_names, metric_names),
      feature_names_(std::make_shared<const std::vector<std::string>>(
          std::move(feature_names))),
      metric_names_(std::make_shared<const std::vector<std::string>>(
          std::move(metric_names))) {
  auto initial = std::make_shared<EstimatorSnapshot>();
  initial->epoch_ = 0;
  initial->feature_names_ = feature_names_;
  initial->metric_names_ = metric_names_;
  published_ = std::move(initial);
}

std::shared_ptr<const EstimatorSnapshot> SnapshotPublisher::Acquire() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return published_;
}

uint64_t SnapshotPublisher::epoch() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return published_->epoch();
}

Status SnapshotPublisher::Record(const std::string& scope,
                                 Observation observation) {
  std::vector<ScopedObservation> batch;
  batch.push_back({scope, std::move(observation)});
  return RecordBatch(std::move(batch));
}

Status SnapshotPublisher::RecordBatch(std::vector<ScopedObservation> batch,
                                      uint64_t* published_epoch) {
  Status first_error = Status::OK();
  uint64_t epoch = 0;
  // Dropped after the unlock: when no reader pins it, its teardown must
  // not hold up a concurrent Acquire.
  std::shared_ptr<const EstimatorSnapshot> superseded;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> touched;
    for (ScopedObservation& entry : batch) {
      std::string scope = std::move(entry.scope);
      Status st = live_.Record(scope, std::move(entry.observation));
      // A failed Add still creates the scope in the live History; the
      // snapshot mirrors that so both paths answer identically afterwards.
      touched.push_back(std::move(scope));
      if (!st.ok()) {
        first_error = std::move(st);
        break;
      }
    }
    if (!touched.empty()) superseded = PublishLocked(std::move(touched));
    epoch = published_->epoch();
  }
  if (published_epoch != nullptr) *published_epoch = epoch;
  if (superseded != nullptr) NotifyPublished(epoch);
  return first_error;
}

void SnapshotPublisher::AddPublishListener(PublishListener listener) {
  std::lock_guard<std::mutex> lock(listeners_mutex_);
  listeners_.push_back(std::move(listener));
}

void SnapshotPublisher::NotifyPublished(uint64_t epoch) {
  // Snapshot the listener list so a listener registering another listener
  // cannot deadlock; invocation happens outside every publisher lock.
  std::vector<PublishListener> listeners;
  {
    std::lock_guard<std::mutex> lock(listeners_mutex_);
    listeners = listeners_;
  }
  for (const PublishListener& listener : listeners) listener(epoch);
}

std::shared_ptr<const EstimatorSnapshot> SnapshotPublisher::PublishLocked(
    std::vector<std::string> touched) {
  // Structural sharing: the successor starts from the predecessor's
  // directory pointers, so untouched scopes keep their state — frozen
  // window AND fit memos — and only the touched directories and buckets
  // are copied.
  auto successor = std::make_shared<EstimatorSnapshot>(*published_);
  ++successor->epoch_;
  successor->RebuildBuckets(live_, std::move(touched));
  return std::exchange(published_, std::move(successor));
}

}  // namespace midas

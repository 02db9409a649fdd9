#ifndef MIDAS_REGRESSION_TRAINING_SET_H_
#define MIDAS_REGRESSION_TRAINING_SET_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/logging.h"
#include "common/status.h"
#include "linalg/matrix.h"

/// Debug/sanitizer builds verify that a TrainingWindow is not read after
/// its owning TrainingSet mutated — the release-mode symptom would be a
/// silently stale (or, after a buffer growth, dangling) view. The checks
/// are compiled out of plain release builds so the window accessors stay
/// free on the estimation hot path.
#if !defined(NDEBUG) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
#define MIDAS_TRAINING_WINDOW_CHECKS 1
#else
#define MIDAS_TRAINING_WINDOW_CHECKS 0
#endif

namespace midas {

class TrainingSet;

/// \brief One historical measurement: the feature vector x (e.g., data
/// sizes, node counts — paper Example 2.1) and the observed value of every
/// cost metric (execution time, monetary cost, ...).
struct Observation {
  /// Logical time of the measurement; the store keeps observations ordered
  /// by ascending timestamp so "most recent window" is well defined.
  int64_t timestamp = 0;
  Vector features;
  Vector costs;
};

/// \brief Zero-copy view of the newest `size()` observations of a
/// TrainingSet, oldest of the window first (the same orientation as
/// RecentFeatures/RecentCosts, without materializing per-window copies).
///
/// Invalidated by any mutation of the underlying TrainingSet, exactly like
/// an iterator; windows are meant to be taken, consumed and dropped within
/// one estimation pass. Windows taken from a *frozen* set — an
/// EstimatorSnapshot's per-scope copy, which never mutates — stay valid
/// for the snapshot's whole lifetime. Debug and sanitizer builds enforce
/// the contract: every accessor checks the owning set's generation counter
/// and aborts loudly on use-after-mutation instead of reading stale
/// memory.
class TrainingWindow {
 public:
  TrainingWindow() = default;
  TrainingWindow(const Observation* data, size_t count)
      : data_(data), count_(count) {}
  /// Window bound to its owning set: accessors debug-assert that the set's
  /// generation still equals `generation` (i.e., no mutation since the
  /// window was taken).
  TrainingWindow(const Observation* data, size_t count,
                 const TrainingSet* owner, uint64_t generation)
      : data_(data), count_(count), owner_(owner), generation_(generation) {}

  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  /// i = 0 is the oldest observation of the window, i = size() - 1 the
  /// newest.
  const Observation& at(size_t i) const {
    CheckFresh();
    return data_[i];
  }
  const Vector& features(size_t i) const {
    CheckFresh();
    return data_[i].features;
  }
  double cost(size_t i, size_t metric) const {
    CheckFresh();
    return data_[i].costs[metric];
  }

  /// The newest m observations of this window as a sub-view (m <= size(),
  /// checked); inherits this window's owner binding.
  TrainingWindow Newest(size_t m) const;

  /// Materialized copies for consumers of the batch OLS interface (the
  /// reference DreamEngine::kBatch); the default incremental engine never
  /// calls these.
  std::vector<Vector> CopyFeatures() const;
  Vector CopyCosts(size_t metric) const;

 private:
  /// Defined inline below TrainingSet (needs its generation()).
  void CheckFresh() const;

  const Observation* data_ = nullptr;
  size_t count_ = 0;
  const TrainingSet* owner_ = nullptr;
  uint64_t generation_ = 0;
};

/// \brief Ordered store of multi-metric cost observations (Figure 2's
/// "training set").
///
/// Observations are appended in timestamp order (enforced); windows are
/// always taken from the *newest* end, which is what lets DREAM avoid
/// expired information.
///
/// Storage is a structurally shared append-only buffer: copying a
/// TrainingSet is O(1) — the copy shares the observation slots and
/// remembers only its own length — which is what lets SnapshotPublisher
/// freeze a scope per epoch without duplicating the history. A single
/// writer appending to the newest copy keeps filling the shared buffer's
/// slack in place (slots past a frozen copy's length are invisible to it),
/// and reallocates into a fresh buffer only on capacity exhaustion or when
/// a sibling copy already claimed the next slot, so frozen readers never
/// observe a mutation. Within one TrainingSet object the usual rules
/// apply: it is not safe to mutate the same object from two threads.
class TrainingSet {
 public:
  /// \param feature_names one per regression variable x_l (fixes L)
  /// \param metric_names one per cost metric c_n (fixes N)
  TrainingSet(std::vector<std::string> feature_names,
              std::vector<std::string> metric_names);

  size_t num_features() const { return feature_names_.size(); }
  size_t num_metrics() const { return metric_names_.size(); }
  size_t size() const { return count_; }
  bool empty() const { return count_ == 0; }

  const std::vector<std::string>& feature_names() const {
    return feature_names_;
  }
  const std::vector<std::string>& metric_names() const {
    return metric_names_;
  }

  /// Mutation counter: bumped by every Add/Trim/Evict. TrainingWindow
  /// captures it at creation, and debug/sanitizer builds fail loudly when
  /// a window outlives the generation it was taken from.
  uint64_t generation() const { return generation_; }

  /// Appends an observation. Fails when dimensions mismatch, a feature or
  /// cost is NaN or infinite, or the timestamp is older than the latest
  /// stored one.
  Status Add(Observation obs);

  /// Convenience overload that stamps the observation with
  /// latest_timestamp + 1.
  Status Add(Vector features, Vector costs);

  const Observation& at(size_t i) const { return buffer_->slots[i]; }

  int64_t latest_timestamp() const;

  /// Zero-copy view of the m most recent observations, oldest first.
  /// Invalidated by any subsequent mutation of this TrainingSet.
  StatusOr<TrainingWindow> RecentWindow(size_t m) const;

  /// The m most recent feature rows, oldest of the window first.
  StatusOr<std::vector<Vector>> RecentFeatures(size_t m) const;

  /// The m most recent values of the given metric, aligned with
  /// RecentFeatures(m).
  StatusOr<Vector> RecentCosts(size_t m, size_t metric_index) const;

  /// Drops everything but the newest `keep` observations (history pruning;
  /// the "new training set" output of Figure 2).
  void TrimToNewest(size_t keep);

  /// Keeps only observations with timestamp >= cutoff.
  void EvictOlderThan(int64_t cutoff);

 private:
  /// Shared slot storage. `slots` is sized to capacity up front and never
  /// resized, so element addresses are stable for every copy sharing the
  /// buffer; `committed` is the high-water mark of initialized slots and
  /// arbitrates which of several copies may extend the buffer in place
  /// (the others fork a fresh buffer instead).
  struct Buffer {
    explicit Buffer(size_t capacity) : slots(capacity) {}
    std::vector<Observation> slots;
    std::atomic<size_t> committed{0};
  };

  /// Forks a fresh buffer holding this set's first `count_` slots with at
  /// least `min_capacity` total slots.
  void Reallocate(size_t min_capacity);

  std::vector<std::string> feature_names_;
  std::vector<std::string> metric_names_;
  std::shared_ptr<Buffer> buffer_;  // null until the first Add
  size_t count_ = 0;                // this copy's logical length
  uint64_t generation_ = 0;
};

inline void TrainingWindow::CheckFresh() const {
#if MIDAS_TRAINING_WINDOW_CHECKS
  MIDAS_CHECK(owner_ == nullptr || owner_->generation() == generation_)
      << "TrainingWindow used after its TrainingSet mutated (stale view)";
#endif
}

}  // namespace midas

#endif  // MIDAS_REGRESSION_TRAINING_SET_H_

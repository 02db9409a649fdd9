#ifndef MIDAS_IRES_SNAPSHOT_H_
#define MIDAS_IRES_SNAPSHOT_H_

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "ires/history.h"
#include "ml/learner.h"
#include "regression/dream.h"

namespace midas {

/// \brief Fitted BML model parameters for one scope at one snapshot: the
/// selected best learner per cost metric (metric order), refitted on the
/// scope's frozen window. Learners are immutable once fitted; sharing them
/// across reader threads is safe because Predict/PredictBatch are const.
struct BmlScopeFit {
  std::vector<std::shared_ptr<const Learner>> learners;
  std::vector<std::string> names;  // winning algorithm per metric
};

/// \brief Immutable, refcounted view of the whole estimator state at one
/// publication epoch: frozen per-scope training windows plus the fitted
/// DREAM/BML model parameters derived from them.
///
/// Readers pin a snapshot (shared_ptr) for the duration of one
/// optimization and every prediction inside it sees one consistent
/// (features, model, window) triple, no matter how many Record batches the
/// writer publishes meanwhile. Nothing reachable from a snapshot ever
/// mutates: scope windows are frozen TrainingSet copies (structurally
/// sharing the writer's observation buffer, see TrainingSet), and model
/// fits are deterministic functions of those windows, computed lazily on
/// first use and memoised per (scope, estimator configuration).
///
/// Scope states are shared between consecutive snapshots when the epoch's
/// Record batch did not touch the scope — the snapshot-to-snapshot
/// carry-over that replaces IncrementalOls' within-call carry-over: a
/// DREAM fit computed against epoch N keeps serving epoch N+1 readers
/// unless the delta replay rebuilt that scope's window. The states live
/// in a two-level table of immutable hash buckets grouped into
/// directories, and a successor copies only the directories and buckets
/// its batch touched, so publishing costs O(touched scopes) rather than
/// O(scopes).
class EstimatorSnapshot {
 public:
  /// The scope table's layout: a scope's state lives in bucket
  /// BucketOf(scope) of kBuckets (a hash of the name), and bucket b in
  /// slot b % kBucketsPerDirectory of directory b / kBucketsPerDirectory.
  /// Public so tests can check bucket coverage and sharing.
  static constexpr size_t kBuckets = 64;
  static constexpr size_t kBucketsPerDirectory = 8;
  static constexpr size_t kDirectories = kBuckets / kBucketsPerDirectory;
  static_assert(kBuckets % kBucketsPerDirectory == 0);
  static size_t BucketOf(const std::string& scope);

  /// Whether this snapshot and `other` hold the same directory (or bucket)
  /// object at `index`, both absent included: the structural sharing
  /// between epochs, observable for tests.
  bool SharesDirectoryWith(const EstimatorSnapshot& other,
                           size_t index) const;
  bool SharesBucketWith(const EstimatorSnapshot& other, size_t index) const;

  /// Monotone publication counter; epoch 0 is the empty initial snapshot.
  uint64_t epoch() const { return epoch_; }

  const std::vector<std::string>& feature_names() const {
    return *feature_names_;
  }
  const std::vector<std::string>& metric_names() const {
    return *metric_names_;
  }
  size_t num_features() const { return feature_names_->size(); }
  size_t num_metrics() const { return metric_names_->size(); }

  /// The scope's frozen training window; NotFound when the scope had no
  /// observations when this snapshot was published.
  StatusOr<const TrainingSet*> Window(const std::string& scope) const;

  /// Number of observations frozen for a scope (0 when absent).
  size_t SizeOf(const std::string& scope) const;

  /// Every scope of the snapshot, sorted (built on demand).
  std::vector<std::string> Scopes() const;

  /// The DREAM estimate (Algorithm 1) for a scope's frozen window under
  /// `options`, fitted on first use and shared by every later caller with
  /// the same configuration. Deterministic, so the memo never changes an
  /// answer — it only amortises the fit across the readers of one epoch.
  StatusOr<std::shared_ptr<const DreamEstimate>> DreamFit(
      const std::string& scope, const DreamOptions& options) const;

  /// Fits (or returns the memoised) BML models for a scope under the memo
  /// key `key` (one per window policy). `fitter` must be a deterministic
  /// pure function of the frozen window; it runs at most once per key per
  /// scope state.
  using BmlFitter = std::function<StatusOr<BmlScopeFit>(const TrainingSet&)>;
  StatusOr<std::shared_ptr<const BmlScopeFit>> BmlFit(
      const std::string& scope, const std::string& key,
      const BmlFitter& fitter) const;

 private:
  friend class SnapshotPublisher;

  /// Frozen per-scope state. Immutable except for the fit memos, which are
  /// logically const (deterministic, mutex-guarded lazy initialisation).
  /// DREAM fits are keyed by the DreamOptions value itself (see
  /// SameDreamOptions in snapshot.cc); a scope sees one or two
  /// configurations, so a linear scan is enough.
  struct ScopeState {
    explicit ScopeState(TrainingSet window) : frozen(std::move(window)) {
      // The first fit's slot is allocated with the state, by the writer,
      // not by a reader mid-query: there the long-lived entry split the
      // query's transient heap (wide_plan_space peak RSS +6%).
      dream_fits.reserve(1);
    }
    const TrainingSet frozen;
    mutable std::mutex fit_mutex;
    mutable std::vector<
        std::pair<DreamOptions, std::shared_ptr<const DreamEstimate>>>
        dream_fits;
    mutable std::map<std::string, std::shared_ptr<const BmlScopeFit>>
        bml_fits;
  };

  /// A bucket is sorted by scope name and never mutated once published.
  using Bucket =
      std::vector<std::pair<std::string, std::shared_ptr<const ScopeState>>>;
  /// A directory is never mutated once published either: a successor that
  /// touches one of its buckets publishes a fresh copy of the directory.
  using Directory =
      std::array<std::shared_ptr<const Bucket>, kBucketsPerDirectory>;

  /// Bucket `index`, or nullptr when absent.
  const Bucket* BucketAt(size_t index) const;
  /// The scope's state, or nullptr when absent.
  const ScopeState* Lookup(const std::string& scope) const;
  StatusOr<const ScopeState*> Find(const std::string& scope) const;

  /// Replaces the buckets `scopes` hash to, and the directories holding
  /// them, with copies that take a fresh frozen window of each listed
  /// scope from `live`; every other member of a rebuilt bucket, every
  /// other bucket of a copied directory, and every other directory is
  /// shared as it is. Scopes absent from `live` keep their current state.
  void RebuildBuckets(const History& live, std::vector<std::string> scopes);

  uint64_t epoch_ = 0;
  std::shared_ptr<const std::vector<std::string>> feature_names_;
  std::shared_ptr<const std::vector<std::string>> metric_names_;
  std::array<std::shared_ptr<const Directory>, kDirectories> directories_;
};

/// \brief Single-writer, many-reader publication point of the estimator
/// state — the split between Figure 2's feedback writes and DREAM/BML
/// prediction reads.
///
/// Writers apply Record batches to the private writer-side History and
/// publish an immutable successor snapshot with an atomically bumped
/// epoch: the successor shares every untouched scope's state (including
/// its fit memos) with the predecessor and rebuilds only the directories
/// and buckets the batch touched, replaying the delta onto a fresh frozen
/// copy of each touched scope. The superseded snapshot is released after
/// the publisher mutex, so its teardown never blocks a concurrent Acquire.
/// Readers call Acquire() to pin the current snapshot; pinned snapshots
/// stay valid and self-consistent for as long as the reader holds the
/// shared_ptr, regardless of later publications.
class SnapshotPublisher {
 public:
  SnapshotPublisher(std::vector<std::string> feature_names,
                    std::vector<std::string> metric_names);

  /// Pins the currently published snapshot (cheap: one shared_ptr copy
  /// under a short critical section).
  std::shared_ptr<const EstimatorSnapshot> Acquire() const;

  /// Epoch of the currently published snapshot.
  uint64_t epoch() const;

  /// \brief Publication hook: `listener` runs after every successful
  /// publication with the new snapshot's epoch — the attachment point for
  /// state that must follow the published epoch in a long-lived server
  /// (e.g. evicting epoch-keyed entries, or a test's hold point).
  ///
  /// Listeners are invoked OUTSIDE the publisher mutex, on the writer
  /// thread whose Record/RecordBatch published. They may Acquire() and may
  /// touch their own locks, but must not Record — publication from inside
  /// a publication listener would recurse. Listeners cannot be removed;
  /// register for the publisher's lifetime.
  using PublishListener = std::function<void(uint64_t epoch)>;
  void AddPublishListener(PublishListener listener);

  /// One scoped observation of a Record batch.
  struct ScopedObservation {
    std::string scope;
    Observation observation;
  };

  /// Applies one observation and publishes the successor (epoch + 1).
  Status Record(const std::string& scope, Observation observation);

  /// Applies a whole feedback batch and publishes ONE successor epoch —
  /// the writer-client pattern for high-rate streams (e.g. the drift
  /// simulator's scheduler feedback). On a validation error the
  /// observations already applied are still published so readers never
  /// see a half-written scope. When `published_epoch` is non-null it
  /// receives the epoch the batch is visible under (the published epoch
  /// as of this call, so writers can report which snapshot their feedback
  /// landed in without racing a concurrent writer's later publication).
  Status RecordBatch(std::vector<ScopedObservation> batch,
                     uint64_t* published_epoch = nullptr);

  /// Writer-side live history (what the next snapshot will freeze).
  /// Reading it concurrently with Record is the caller's race to manage —
  /// concurrent consumers should pin a snapshot instead.
  const History& history() const { return live_; }

 private:
  /// Rebuilds `touched` scopes from live_ into a successor snapshot and
  /// publishes it. Returns the superseded snapshot so the caller can drop
  /// it after releasing mutex_. Caller holds mutex_.
  std::shared_ptr<const EstimatorSnapshot> PublishLocked(
      std::vector<std::string> touched);

  /// Runs every registered listener with `epoch`. Caller must NOT hold
  /// mutex_ (listeners may Acquire).
  void NotifyPublished(uint64_t epoch);

  mutable std::mutex mutex_;  // guards live_, published_
  History live_;
  std::shared_ptr<const std::vector<std::string>> feature_names_;
  std::shared_ptr<const std::vector<std::string>> metric_names_;
  std::shared_ptr<const EstimatorSnapshot> published_;

  std::mutex listeners_mutex_;  // guards listeners_ only
  std::vector<PublishListener> listeners_;
};

}  // namespace midas

#endif  // MIDAS_IRES_SNAPSHOT_H_

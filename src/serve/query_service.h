#ifndef MIDAS_SERVE_QUERY_SERVICE_H_
#define MIDAS_SERVE_QUERY_SERVICE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/statistics.h"
#include "common/status.h"
#include "midas/midas.h"
#include "serve/admission_queue.h"

namespace midas {

/// \brief Knobs of the in-process federation service.
struct ServeOptions {
  /// Executor slots: worker threads running the read-only optimization
  /// half (enumerate → cost → Pareto) concurrently. Executions and
  /// feedback publication remain globally serialized regardless.
  size_t slots = 2;
  /// Bound on admitted-but-undispatched requests across all tenants;
  /// Submit rejects with ResourceExhausted beyond it.
  size_t queue_capacity = 256;
  /// Per-tenant bound on queued + dispatched-unreleased requests
  /// (0 = unlimited); Submit rejects with ResourceExhausted beyond it.
  size_t tenant_inflight_cap = 8;
};

/// \brief Everything the service produced for one admitted request.
struct Served {
  /// The optimization result plus the executed plan's measurement — the
  /// same QueryOutcome MidasSystem::RunQuery returns.
  QueryOutcome outcome;
  /// Epoch of the estimator snapshot pinned when the request was
  /// dispatched to a slot (== outcome.moqp.snapshot_epoch).
  uint64_t admission_epoch = 0;
  /// Epoch this request's own feedback was published under.
  uint64_t feedback_epoch = 0;
  /// Global execution order (1-based): the position of this request's
  /// execute+record in the service's serialized feedback path. Replaying
  /// requests in this order through a fresh MidasSystem::RunQuery
  /// reproduces every outcome bit-for-bit (see class comment).
  uint64_t execution_seq = 0;
  /// Admission-to-dispatch wait.
  double queue_seconds = 0.0;
  /// Dispatch-to-completion time (optimize + execute + publish).
  double service_seconds = 0.0;
  /// Portion of service_seconds spent publishing the feedback snapshot.
  double publish_seconds = 0.0;
};

/// \brief Service-level counters and latency distributions.
struct ServeStats {
  AdmissionStats admission;
  uint64_t served = 0;  ///< completed successfully
  uint64_t failed = 0;  ///< dispatched but failed (optimize or execute)
  /// Admission-to-dispatch waits, in nanoseconds.
  LatencyRecorder queue_latency;
  /// Dispatch-to-completion times, in nanoseconds.
  LatencyRecorder service_latency;
};

/// \brief Long-lived in-process federation service: concurrent query
/// admission over snapshot-pinned estimator state.
///
/// Submitters enqueue QueryRequests into a bounded per-tenant-FIFO
/// admission queue (backpressure by rejection); a pool of executor slots
/// pops them in round-robin order across tenants, pins the current
/// estimator snapshot, and runs the read-only optimization half
/// (MidasSystem::OptimizeQuery) concurrently. The write half — simulator
/// execution and feedback publication via
/// Scheduler::ExecuteAndRecordBatch — is globally serialized under one
/// mutex, stamping each request with its global execution_seq.
///
/// **Replay equivalence.** Results are bit-identical to a serial
/// MidasSystem::RunQuery replay of the recorded execution order when each
/// tenant submits under its own history scope (tenant == request.scope):
///  - the queue dispatches at most one request per tenant at a time, and a
///    tenant's next request is dispatched (and its snapshot pinned) only
///    after the previous request's feedback was published — so at pin
///    time a tenant's scope window always contains exactly its own prior
///    feedback, as it would serially;
///  - predictions depend only on the request's own scope window, so
///    other tenants' feedback being present or absent in the pinned
///    snapshot cannot change the Pareto front;
///  - executions are serialized in execution_seq order against the shared
///    simulator, so measurements match a serial replay of that order.
///
/// Thread-safe: Submit may be called from any number of threads.
class QueryService {
 public:
  using Result = StatusOr<Served>;

  /// `system` must outlive the service. The service owns no estimator
  /// state of its own — it is a client of the system's SnapshotPublisher
  /// (reads) and Scheduler (writes).
  explicit QueryService(MidasSystem* system,
                        ServeOptions options = ServeOptions());

  /// Drains gracefully: closes admissions, finishes every accepted
  /// request, joins the slots.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Admits `request` into `tenant`'s lane and returns a future for its
  /// result, or rejects immediately with ResourceExhausted (queue full /
  /// tenant cap) or FailedPrecondition (service shut down). For the
  /// bit-identical replay guarantee, use tenant == request.scope.
  StatusOr<std::future<Result>> Submit(const std::string& tenant,
                                       QueryRequest request);

  /// Blocks until every accepted request has completed. Admissions stay
  /// open; a steady submitter can keep Drain waiting indefinitely.
  void Drain();

  /// Closes admissions, completes queued requests, joins the slots.
  /// Idempotent; the destructor calls it.
  void Shutdown();

  ServeStats stats() const;

  const ServeOptions& options() const { return options_; }

 private:
  struct Job {
    QueryRequest request;
    std::promise<Result> promise;
    double enqueue_seconds = 0.0;
  };

  /// Per-slot metrics; each slot writes only its own under its own mutex
  /// (LatencyRecorder is not thread-safe), stats() merges them.
  struct SlotMetrics {
    std::mutex mutex;
    uint64_t served = 0;
    uint64_t failed = 0;
    LatencyRecorder queue_latency;
    LatencyRecorder service_latency;
  };

  void SlotLoop(size_t slot);
  Result Process(Job& job, Served& served);

  MidasSystem* system_;
  const ServeOptions options_;
  AdmissionQueue<Job> queue_;
  std::vector<std::unique_ptr<SlotMetrics>> metrics_;
  std::vector<std::thread> slots_;

  /// Serializes simulator execution + feedback publication (the simulator
  /// advances a logical clock and shared variance streams; interleaving
  /// executions would make measurements order-dependent in a
  /// non-replayable way).
  std::mutex execute_mutex_;
  uint64_t execution_seq_ = 0;  ///< guarded by execute_mutex_

  mutable std::mutex lifecycle_mutex_;
  std::condition_variable all_done_;
  uint64_t accepted_ = 0;   ///< guarded by lifecycle_mutex_
  uint64_t completed_ = 0;  ///< guarded by lifecycle_mutex_
  bool shutdown_ = false;   ///< guarded by lifecycle_mutex_
};

}  // namespace midas

#endif  // MIDAS_SERVE_QUERY_SERVICE_H_

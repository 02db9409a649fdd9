#include "serve/query_service.h"

#include <utility>

namespace midas {
namespace {

uint64_t SecondsToNanos(double seconds) {
  if (seconds <= 0.0) return 0;
  return static_cast<uint64_t>(seconds * 1e9);
}

}  // namespace

QueryService::QueryService(MidasSystem* system, ServeOptions options)
    : system_(system),
      options_(options),
      queue_([&] {
        AdmissionQueue<Job>::Options q;
        q.capacity = options.queue_capacity;
        q.tenant_inflight_cap = options.tenant_inflight_cap;
        return q;
      }()) {
  const size_t slots = options_.slots == 0 ? 1 : options_.slots;
  metrics_.reserve(slots);
  slots_.reserve(slots);
  for (size_t s = 0; s < slots; ++s) {
    metrics_.push_back(std::make_unique<SlotMetrics>());
  }
  for (size_t s = 0; s < slots; ++s) {
    slots_.emplace_back([this, s] { SlotLoop(s); });
  }
}

QueryService::~QueryService() { Shutdown(); }

StatusOr<std::future<QueryService::Result>> QueryService::Submit(
    const std::string& tenant, QueryRequest request) {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) {
      return Status::FailedPrecondition("query service is shut down");
    }
  }
  Job job;
  job.request = std::move(request);
  job.enqueue_seconds = MonotonicSeconds();
  std::future<Result> future = job.promise.get_future();
  MIDAS_RETURN_IF_ERROR(queue_.Push(tenant, std::move(job)));
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    ++accepted_;
  }
  return future;
}

void QueryService::Drain() {
  std::unique_lock<std::mutex> lock(lifecycle_mutex_);
  all_done_.wait(lock, [this] { return completed_ == accepted_; });
}

void QueryService::Shutdown() {
  {
    std::lock_guard<std::mutex> lock(lifecycle_mutex_);
    if (shutdown_) return;
    shutdown_ = true;
  }
  queue_.Close();
  for (std::thread& slot : slots_) {
    if (slot.joinable()) slot.join();
  }
}

QueryService::Result QueryService::Process(Job& job, Served& served) {
  // Pin the estimator snapshot at dispatch. The queue's per-tenant
  // serialization means the tenant's previous request (if any) already
  // published its feedback, so this tenant's scope window is exactly what
  // a serial replay would see.
  std::shared_ptr<const EstimatorSnapshot> snapshot =
      system_->modelling().Snapshot();
  served.admission_epoch = snapshot->epoch();
  MIDAS_ASSIGN_OR_RETURN(served.outcome,
                         system_->OptimizeQuery(snapshot, job.request));
  {
    // The write half: one request executes + records at a time, in the
    // order execute_mutex_ admits them — the order execution_seq records
    // and a serial replay must follow.
    std::lock_guard<std::mutex> lock(execute_mutex_);
    served.execution_seq = ++execution_seq_;
    MIDAS_ASSIGN_OR_RETURN(
        Scheduler::BatchWriteResult write,
        system_->scheduler().ExecuteAndRecordBatch(
            job.request.scope, {served.outcome.moqp.chosen_plan()}));
    served.outcome.actual = write.measurements.front();
    served.feedback_epoch = write.published_epoch;
    served.publish_seconds = write.publish_seconds;
  }
  return std::move(served);
}

void QueryService::SlotLoop(size_t slot) {
  SlotMetrics& metrics = *metrics_[slot];
  while (true) {
    StatusOr<AdmissionQueue<Job>::Dispatched> dispatched = queue_.Pop();
    if (!dispatched.ok()) break;  // closed and drained
    Job job = std::move(dispatched->item);
    const double start = MonotonicSeconds();
    Served served;
    served.queue_seconds = start - job.enqueue_seconds;
    Result result = Process(job, served);
    const double service_seconds = MonotonicSeconds() - start;
    if (result.ok()) result->service_seconds = service_seconds;
    {
      std::lock_guard<std::mutex> lock(metrics.mutex);
      if (result.ok()) {
        ++metrics.served;
      } else {
        ++metrics.failed;
      }
      metrics.queue_latency.Record(SecondsToNanos(served.queue_seconds));
      metrics.service_latency.Record(SecondsToNanos(service_seconds));
    }
    // Release before Fulfil: a closed-loop client resubmits as soon as its
    // future is ready, and must find its lane free, or a tenant at
    // tenant_inflight_cap = 1 is rejected. This request has already
    // executed and published, so a next request dispatched in between
    // still pins this feedback and takes a later execution_seq.
    queue_.Release(dispatched->tenant);
    job.promise.set_value(std::move(result));
    {
      std::lock_guard<std::mutex> lock(lifecycle_mutex_);
      ++completed_;
      all_done_.notify_all();
    }
  }
}

ServeStats QueryService::stats() const {
  ServeStats out;
  out.admission = queue_.stats();
  for (const std::unique_ptr<SlotMetrics>& slot : metrics_) {
    std::lock_guard<std::mutex> lock(slot->mutex);
    out.served += slot->served;
    out.failed += slot->failed;
    out.queue_latency.MergeFrom(slot->queue_latency);
    out.service_latency.MergeFrom(slot->service_latency);
  }
  return out;
}

}  // namespace midas

#ifndef MIDAS_SERVE_ADMISSION_QUEUE_H_
#define MIDAS_SERVE_ADMISSION_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/status.h"

namespace midas {

/// \brief AdmissionQueue counters for observability; all monotone except
/// depth. At namespace scope (not nested in the template) so service-level
/// stats structs can embed it without naming the queue's item type.
struct AdmissionStats {
  uint64_t accepted = 0;
  uint64_t rejected_capacity = 0;
  uint64_t rejected_tenant_cap = 0;
  uint64_t dispatched = 0;
  size_t depth = 0;      ///< currently queued
  size_t max_depth = 0;  ///< high-water mark of depth
};

/// \brief Bounded multi-producer multi-consumer admission queue with one
/// FIFO lane per tenant and round-robin scheduling across lanes.
///
/// Three properties the serving layer builds on:
///
///  1. **Per-tenant FIFO**: items of one tenant are dispatched in push
///     order, always.
///  2. **Per-tenant serialization**: at most ONE item of a tenant is
///     dispatched-but-unreleased at any time. The consumer calls
///     Release(tenant) when it is done; only then does the tenant's next
///     item become dispatchable. This is what lets the QueryService prove
///     its outcomes bit-identical to a serial replay — a tenant's query
///     n+1 pins its estimator snapshot only after query n's feedback was
///     published.
///  3. **Round-robin fairness**: lanes are visited in a ring and each
///     visit dispatches at most one item, so backlogged tenants take turns
///     regardless of how fast they push.
///
/// Backpressure is rejection, not blocking: Push fails with
/// ResourceExhausted when the queue is at capacity or the tenant's
/// in-flight cap (queued + dispatched-unreleased) is reached, so callers
/// can shed load instead of stalling their submitters.
///
/// Thread-safe throughout; Pop blocks until an item is dispatchable or the
/// queue is closed and drained.
template <typename T>
class AdmissionQueue {
 public:
  struct Options {
    /// Max queued (admitted, not yet dispatched) items across all tenants.
    size_t capacity = 256;
    /// Max queued + dispatched-unreleased items per tenant (0 = unlimited).
    size_t tenant_inflight_cap = 0;
  };

  /// One dispatched item plus the lane it came from; the consumer must
  /// Release(tenant) after finishing it.
  struct Dispatched {
    std::string tenant;
    T item;
  };

  using Stats = AdmissionStats;

  explicit AdmissionQueue(Options options) : options_(options) {}

  AdmissionQueue(const AdmissionQueue&) = delete;
  AdmissionQueue& operator=(const AdmissionQueue&) = delete;

  /// Admits `item` into `tenant`'s lane, or rejects it:
  ///  - FailedPrecondition once Close() was called,
  ///  - ResourceExhausted when the queue is full or the tenant's
  ///    in-flight cap is reached.
  Status Push(const std::string& tenant, T item) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (closed_) {
      return Status::FailedPrecondition("admission queue is closed");
    }
    if (depth_ >= options_.capacity) {
      ++stats_.rejected_capacity;
      return Status::ResourceExhausted("admission queue at capacity");
    }
    Lane& lane = LaneFor(tenant);
    if (options_.tenant_inflight_cap != 0) {
      const size_t inflight = lane.items.size() + (lane.dispatched ? 1 : 0);
      if (inflight >= options_.tenant_inflight_cap) {
        ++stats_.rejected_tenant_cap;
        return Status::ResourceExhausted("tenant in-flight cap reached: " +
                                         tenant);
      }
    }
    lane.items.push_back(std::move(item));
    ++depth_;
    ++stats_.accepted;
    if (depth_ > stats_.max_depth) stats_.max_depth = depth_;
    dispatchable_.notify_one();
    return Status::OK();
  }

  /// Blocks until some lane has a dispatchable head, pops the first one at
  /// or after the round-robin cursor and marks its lane dispatched.
  /// Returns FailedPrecondition once the queue is closed AND fully drained
  /// (the consumer's signal to exit its loop).
  StatusOr<Dispatched> Pop() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
      const size_t lanes = ring_.size();
      for (size_t step = 0; step < lanes; ++step) {
        const size_t index = (cursor_ + step) % lanes;
        Lane& lane = *ring_[index];
        if (lane.dispatched || lane.items.empty()) continue;
        Dispatched out{lane.name, std::move(lane.items.front())};
        lane.items.pop_front();
        lane.dispatched = true;
        --depth_;
        ++stats_.dispatched;
        // Draining the last item after Close must wake peers parked in
        // Pop so they can observe closed-and-drained and exit.
        if (closed_ && depth_ == 0) dispatchable_.notify_all();
        cursor_ = (index + 1) % lanes;
        return out;
      }
      if (closed_ && depth_ == 0) {
        return Status::FailedPrecondition("admission queue closed and drained");
      }
      dispatchable_.wait(lock);
    }
  }

  /// Marks `tenant`'s dispatched item finished, making its next queued
  /// item dispatchable.
  void Release(const std::string& tenant) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = lanes_.find(tenant);
    if (it == lanes_.end()) return;
    it->second.dispatched = false;
    if (!it->second.items.empty()) dispatchable_.notify_one();
    if (closed_ && depth_ == 0) dispatchable_.notify_all();
  }

  /// Stops admissions; already-queued items still dispatch (graceful
  /// drain). Wakes blocked consumers so they can observe the close.
  void Close() {
    std::lock_guard<std::mutex> lock(mutex_);
    closed_ = true;
    dispatchable_.notify_all();
  }

  Stats stats() const {
    std::lock_guard<std::mutex> lock(mutex_);
    Stats out = stats_;
    out.depth = depth_;
    return out;
  }

  size_t depth() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return depth_;
  }

 private:
  struct Lane {
    std::string name;
    std::deque<T> items;
    bool dispatched = false;
  };

  /// Must hold mutex_. Creates the lane on first use and appends it to the
  /// round-robin ring (pointers into lanes_ stay valid: unordered_map
  /// never moves its nodes).
  Lane& LaneFor(const std::string& tenant) {
    auto it = lanes_.find(tenant);
    if (it == lanes_.end()) {
      it = lanes_.emplace(tenant, Lane{}).first;
      it->second.name = tenant;
      ring_.push_back(&it->second);
    }
    return it->second;
  }

  const Options options_;
  mutable std::mutex mutex_;
  std::condition_variable dispatchable_;
  std::unordered_map<std::string, Lane> lanes_;
  std::vector<Lane*> ring_;  ///< lanes in first-seen order
  size_t cursor_ = 0;        ///< ring index the next Pop scan starts at
  size_t depth_ = 0;
  bool closed_ = false;
  Stats stats_;
};

}  // namespace midas

#endif  // MIDAS_SERVE_ADMISSION_QUEUE_H_

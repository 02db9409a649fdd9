#include "serve/admission_queue.h"

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace midas {
namespace {

AdmissionQueue<int>::Options SmallQueue(size_t capacity = 16,
                                        size_t tenant_cap = 0) {
  AdmissionQueue<int>::Options options;
  options.capacity = capacity;
  options.tenant_inflight_cap = tenant_cap;
  return options;
}

TEST(AdmissionQueueTest, SingleTenantIsFifo) {
  AdmissionQueue<int> queue(SmallQueue());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(queue.Push("a", i).ok());
  }
  for (int i = 0; i < 5; ++i) {
    auto d = queue.Pop();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->tenant, "a");
    EXPECT_EQ(d->item, i);
    queue.Release("a");
  }
  EXPECT_EQ(queue.depth(), 0u);
}

TEST(AdmissionQueueTest, AtMostOneDispatchedPerTenant) {
  AdmissionQueue<int> queue(SmallQueue());
  ASSERT_TRUE(queue.Push("a", 1).ok());
  ASSERT_TRUE(queue.Push("a", 2).ok());
  ASSERT_TRUE(queue.Push("b", 10).ok());
  // a's head dispatches first; a's second item must wait for Release even
  // though it is older than anything else — b is the only dispatchable
  // lane meanwhile.
  auto first = queue.Pop();
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first->tenant, "a");
  EXPECT_EQ(first->item, 1);
  auto second = queue.Pop();
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second->tenant, "b");
  queue.Release("a");
  auto third = queue.Pop();
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(third->tenant, "a");
  EXPECT_EQ(third->item, 2);
}

TEST(AdmissionQueueTest, CapacityRejectionIsResourceExhausted) {
  AdmissionQueue<int> queue(SmallQueue(/*capacity=*/2));
  ASSERT_TRUE(queue.Push("a", 1).ok());
  ASSERT_TRUE(queue.Push("b", 2).ok());
  Status rejected = queue.Push("c", 3);
  EXPECT_EQ(rejected.code(), StatusCode::kResourceExhausted);
  EXPECT_EQ(queue.stats().rejected_capacity, 1u);
  EXPECT_EQ(queue.stats().accepted, 2u);
}

TEST(AdmissionQueueTest, TenantCapCountsDispatchedUntilRelease) {
  AdmissionQueue<int> queue(SmallQueue(/*capacity=*/16, /*tenant_cap=*/1));
  ASSERT_TRUE(queue.Push("a", 1).ok());
  EXPECT_EQ(queue.Push("a", 2).code(), StatusCode::kResourceExhausted);
  // Dispatching does not free the tenant's slot — only Release does.
  ASSERT_TRUE(queue.Pop().ok());
  EXPECT_EQ(queue.Push("a", 2).code(), StatusCode::kResourceExhausted);
  queue.Release("a");
  EXPECT_TRUE(queue.Push("a", 2).ok());
  EXPECT_EQ(queue.stats().rejected_tenant_cap, 2u);
}

TEST(AdmissionQueueTest, BackloggedTenantsTakeTurns) {
  AdmissionQueue<int> queue(SmallQueue());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(queue.Push("a", i).ok());
    ASSERT_TRUE(queue.Push("b", i).ok());
  }
  // Each ring visit dispatches one item and moves the cursor past the
  // lane, so two backlogged lanes alternate: a b a b ..., each in FIFO
  // order.
  std::vector<std::string> order;
  std::vector<int> items;
  for (int i = 0; i < 8; ++i) {
    auto d = queue.Pop();
    ASSERT_TRUE(d.ok());
    order.push_back(d->tenant);
    items.push_back(d->item);
    queue.Release(d->tenant);
  }
  EXPECT_EQ(order, (std::vector<std::string>{"a", "b", "a", "b", "a", "b",
                                             "a", "b"}));
  EXPECT_EQ(items, (std::vector<int>{0, 0, 1, 1, 2, 2, 3, 3}));
}

TEST(AdmissionQueueTest, CloseDrainsThenFailsPop) {
  AdmissionQueue<int> queue(SmallQueue());
  ASSERT_TRUE(queue.Push("a", 1).ok());
  ASSERT_TRUE(queue.Push("a", 2).ok());
  queue.Close();
  EXPECT_EQ(queue.Push("a", 3).code(), StatusCode::kFailedPrecondition);
  for (int expected : {1, 2}) {
    auto d = queue.Pop();
    ASSERT_TRUE(d.ok());
    EXPECT_EQ(d->item, expected);
    queue.Release("a");
  }
  EXPECT_EQ(queue.Pop().status().code(), StatusCode::kFailedPrecondition);
}

TEST(AdmissionQueueTest, PopBlocksUntilPushArrives) {
  AdmissionQueue<int> queue(SmallQueue());
  std::atomic<int> got{-1};
  std::thread consumer([&] {
    auto d = queue.Pop();
    if (d.ok()) got.store(d->item);
  });
  // The consumer is (very likely) parked in Pop by now; the push must wake
  // it. Correctness does not depend on the sleep — it only widens the
  // window in which a broken wakeup would hang the join below.
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  ASSERT_TRUE(queue.Push("a", 42).ok());
  consumer.join();
  EXPECT_EQ(got.load(), 42);
}

TEST(AdmissionQueueTest, ConcurrentPushersAndPoppersConserveItems) {
  AdmissionQueue<int> queue(SmallQueue(/*capacity=*/1024));
  constexpr int kPushers = 4;
  constexpr int kPerPusher = 200;
  std::atomic<uint64_t> popped_sum{0};
  std::atomic<int> popped_count{0};
  std::vector<std::thread> threads;
  for (int p = 0; p < kPushers; ++p) {
    threads.emplace_back([&, p] {
      const std::string tenant = "t" + std::to_string(p);
      for (int i = 0; i < kPerPusher; ++i) {
        while (!queue.Push(tenant, p * kPerPusher + i).ok()) {
          std::this_thread::yield();
        }
      }
    });
  }
  for (int c = 0; c < 2; ++c) {
    threads.emplace_back([&] {
      while (true) {
        auto d = queue.Pop();
        if (!d.ok()) break;
        popped_sum.fetch_add(static_cast<uint64_t>(d->item));
        popped_count.fetch_add(1);
        queue.Release(d->tenant);
      }
    });
  }
  for (int p = 0; p < kPushers; ++p) threads[p].join();
  queue.Close();
  for (size_t t = kPushers; t < threads.size(); ++t) threads[t].join();
  const int total = kPushers * kPerPusher;
  EXPECT_EQ(popped_count.load(), total);
  EXPECT_EQ(popped_sum.load(),
            static_cast<uint64_t>(total) * (total - 1) / 2);
  EXPECT_EQ(queue.stats().dispatched, static_cast<uint64_t>(total));
}

}  // namespace
}  // namespace midas

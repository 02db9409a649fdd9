#include "serve/query_service.h"

#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "midas/medical.h"

namespace midas {
namespace {

MidasSystem MakeSystem(uint64_t seed = 2019) {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = seed;
  return MidasSystem(std::move(federation), std::move(catalog), options);
}

QueryPolicy MakePolicy(double seconds_weight) {
  QueryPolicy policy;
  policy.weights = {seconds_weight, 1.0 - seconds_weight};
  return policy;
}

TEST(QueryServiceTest, OutcomesMatchSerialRunQuery) {
  // The service half and the serial half start from identical systems
  // (same seed, same bootstrap); a single tenant's requests must then
  // produce the same outcomes the serial RunQuery loop produces, since
  // per-tenant serialization makes the service's execution order the
  // submission order.
  MidasSystem served_system = MakeSystem(91);
  MidasSystem serial_system = MakeSystem(91);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(served_system.Bootstrap("s", query, 16).ok());
  ASSERT_TRUE(serial_system.Bootstrap("s", query, 16).ok());

  constexpr size_t kQueries = 4;
  const double weights[kQueries] = {0.5, 0.7, 0.3, 0.5};

  ServeOptions options;
  options.slots = 2;
  QueryService service(&served_system, options);
  std::vector<std::future<QueryService::Result>> futures;
  for (size_t i = 0; i < kQueries; ++i) {
    auto submitted =
        service.Submit("s", QueryRequest{"s", query, MakePolicy(weights[i])});
    ASSERT_TRUE(submitted.ok());
    futures.push_back(std::move(*submitted));
  }
  for (size_t i = 0; i < kQueries; ++i) {
    QueryService::Result served = futures[i].get();
    ASSERT_TRUE(served.ok()) << served.status();
    auto serial =
        serial_system.RunQuery("s", query, MakePolicy(weights[i]));
    ASSERT_TRUE(serial.ok());
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(served->execution_seq, i + 1);
    EXPECT_EQ(served->admission_epoch, served->outcome.moqp.snapshot_epoch);
    EXPECT_GT(served->feedback_epoch, served->admission_epoch);
    EXPECT_EQ(served->outcome.moqp.chosen_plan().ToString(),
              serial->moqp.chosen_plan().ToString());
    ASSERT_EQ(served->outcome.predicted.size(), serial->predicted.size());
    for (size_t k = 0; k < serial->predicted.size(); ++k) {
      EXPECT_EQ(served->outcome.predicted[k], serial->predicted[k]);
    }
    EXPECT_DOUBLE_EQ(served->outcome.actual.seconds, serial->actual.seconds);
    EXPECT_DOUBLE_EQ(served->outcome.actual.dollars, serial->actual.dollars);
  }
}

TEST(QueryServiceTest, TenantInflightCapRejectsBurst) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("s", query, 16).ok());
  // The first request is held inside its feedback publication (which
  // precedes its release) until all three submits are in, so the first two
  // provably occupy the tenant's dispatched + queued slots when the third
  // arrives, however fast an optimize + execute is.
  auto held = std::make_shared<std::atomic<bool>>(true);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  system.modelling().publisher().AddPublishListener(
      [held, released](uint64_t) {
        if (held->exchange(false)) released.wait();
      });
  ServeOptions options;
  options.slots = 1;
  options.tenant_inflight_cap = 2;
  QueryService service(&system, options);
  auto first = service.Submit("s", QueryRequest{"s", query, MakePolicy(0.5)});
  auto second = service.Submit("s", QueryRequest{"s", query, MakePolicy(0.5)});
  auto third = service.Submit("s", QueryRequest{"s", query, MakePolicy(0.5)});
  release.set_value();
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(third.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(first->get().ok());
  EXPECT_TRUE(second->get().ok());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.admission.rejected_tenant_cap, 1u);
  EXPECT_EQ(stats.served, 2u);
}

TEST(QueryServiceTest, ClosedLoopClientsAtCapOneAreNeverRejected) {
  // A closed-loop client resubmits the moment its future is ready. The
  // slot frees the tenant's lane before it fulfils the future, so at a cap
  // of 1 the resubmission always finds the lane free. Eight tenants on
  // four slots keep the queue lock contended, so a lane still held when
  // its future becomes ready shows up as rejections.
  constexpr size_t kTenants = 8;
  constexpr uint64_t kRounds = 100;
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  for (size_t t = 0; t < kTenants; ++t) {
    const std::string tenant = "t" + std::to_string(t);
    ASSERT_TRUE(system.Bootstrap(tenant, query, 16).ok());
  }
  ServeOptions options;
  options.slots = 4;
  options.tenant_inflight_cap = 1;
  QueryService service(&system, options);
  std::atomic<uint64_t> rejected{0};
  std::atomic<uint64_t> failed{0};
  std::atomic<uint64_t> out_of_order{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < kTenants; ++t) {
    clients.emplace_back([&, t] {
      const std::string tenant = "t" + std::to_string(t);
      uint64_t last_seq = 0;
      for (uint64_t i = 0; i < kRounds; ++i) {
        auto submitted = service.Submit(
            tenant, QueryRequest{tenant, query, MakePolicy(0.5)});
        if (!submitted.ok()) {
          rejected.fetch_add(1);
          continue;
        }
        QueryService::Result served = submitted->get();
        if (!served.ok()) {
          failed.fetch_add(1);
          continue;
        }
        // The tenant's requests execute in submission order.
        if (served->execution_seq <= last_seq) out_of_order.fetch_add(1);
        last_seq = served->execution_seq;
      }
    });
  }
  for (std::thread& client : clients) client.join();
  EXPECT_EQ(rejected.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_EQ(out_of_order.load(), 0u);
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.admission.rejected_tenant_cap, 0u);
  EXPECT_EQ(stats.served, kTenants * kRounds);
}

TEST(QueryServiceTest, StatsAggregateAcrossSlots) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  for (const std::string scope : {"a", "b"}) {
    ASSERT_TRUE(system.Bootstrap(scope, query, 16).ok());
  }
  ServeOptions options;
  options.slots = 2;
  QueryService service(&system, options);
  constexpr size_t kPerTenant = 3;
  std::vector<std::future<QueryService::Result>> futures;
  for (size_t i = 0; i < kPerTenant; ++i) {
    for (const std::string scope : {"a", "b"}) {
      auto submitted = service.Submit(
          scope, QueryRequest{scope, query, MakePolicy(0.5)});
      ASSERT_TRUE(submitted.ok());
      futures.push_back(std::move(*submitted));
    }
  }
  service.Drain();
  for (auto& f : futures) EXPECT_TRUE(f.get().ok());
  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.served, 2 * kPerTenant);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.admission.accepted, 2 * kPerTenant);
  EXPECT_EQ(stats.admission.dispatched, 2 * kPerTenant);
  EXPECT_EQ(stats.queue_latency.count(), 2 * kPerTenant);
  EXPECT_EQ(stats.service_latency.count(), 2 * kPerTenant);
  EXPECT_TRUE(stats.service_latency.ValueAtQuantile(0.5).ok());
}

TEST(QueryServiceTest, FailedOptimizationsSurfaceThroughTheFuture) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  QueryService service(&system);
  // No bootstrap: the scope has no history, so optimization fails; the
  // error must come back through the future, and count as failed.
  auto submitted =
      service.Submit("cold", QueryRequest{"cold", query, MakePolicy(0.5)});
  ASSERT_TRUE(submitted.ok());
  EXPECT_FALSE(submitted->get().ok());
  service.Drain();
  EXPECT_EQ(service.stats().failed, 1u);
  EXPECT_EQ(service.stats().served, 0u);
}

TEST(QueryServiceTest, ShutdownRejectsNewSubmissions) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  QueryService service(&system);
  service.Shutdown();
  auto submitted =
      service.Submit("s", QueryRequest{"s", query, MakePolicy(0.5)});
  EXPECT_EQ(submitted.status().code(), StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace midas

// Multi-tenant serving under concurrency: 64 tenant lanes submitting mixed
// read/feedback traffic from 8 submitter threads into a 4-slot
// QueryService. Asserts the service's three load-bearing guarantees:
//
//  1. per-tenant FIFO — a tenant's requests execute in submission order;
//  2. admission-time snapshot pinning — every outcome was predicted
//     against exactly the epoch pinned when the request was dispatched;
//  3. replay equivalence — re-running the recorded global execution order
//     through a fresh identical MidasSystem::RunQuery reproduces every
//     outcome bit for bit.
//
// Once with every tenant on Example 2.1, once with tenants bound to three
// logical plans that the slots resolve through one plan-space memo.
//
// Runs under tsan via scripts/check.sh; sizes are chosen so the sanitizer
// suite stays tolerable on small CI hosts.

#include <algorithm>
#include <future>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "midas/medical.h"
#include "serve/query_service.h"

namespace midas {
namespace {

constexpr size_t kTenants = 64;
constexpr size_t kRequestsPerTenant = 2;
constexpr size_t kSubmitters = 8;
constexpr size_t kBootstrapRuns = 12;

MidasSystem MakeSystem() {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = 4242;
  return MidasSystem(std::move(federation), std::move(catalog), options);
}

std::string TenantName(size_t t) { return "t" + std::to_string(t); }

// Mixed traffic: each request leans on a different policy corner, so
// tenants exercise different Pareto picks against the shared snapshots.
QueryPolicy PolicyFor(size_t tenant, size_t request) {
  const double corners[3] = {0.5, 0.7, 0.3};
  QueryPolicy policy;
  const double w = corners[(tenant + request) % 3];
  policy.weights = {w, 1.0 - w};
  return policy;
}

// Serves every tenant's requests on `plans[t % plans.size()]` and checks
// the three guarantees above.
void ServeAndReplay(const std::vector<QueryPlan>& plans) {
  const auto plan_of = [&plans](size_t t) -> const QueryPlan& {
    return plans[t % plans.size()];
  };
  MidasSystem served_system = MakeSystem();
  MidasSystem replay_system = MakeSystem();
  // Identical warm-up on both systems, in the same order.
  for (size_t t = 0; t < kTenants; ++t) {
    ASSERT_TRUE(served_system.Bootstrap(TenantName(t), plan_of(t),
                                        kBootstrapRuns)
                    .ok());
    ASSERT_TRUE(replay_system.Bootstrap(TenantName(t), plan_of(t),
                                        kBootstrapRuns)
                    .ok());
  }

  ServeOptions options;
  options.slots = 4;
  options.queue_capacity = kTenants * kRequestsPerTenant;
  options.tenant_inflight_cap = 0;  // all traffic must land, none shed
  QueryService service(&served_system, options);

  // results[t][r] = outcome of tenant t's r-th request.
  std::vector<std::vector<QueryService::Result>> results(
      kTenants,
      std::vector<QueryService::Result>(
          kRequestsPerTenant, Status::Internal("not served")));
  std::vector<std::thread> submitters;
  for (size_t s = 0; s < kSubmitters; ++s) {
    submitters.emplace_back([&, s] {
      // Each submitter owns a contiguous block of tenants and submits
      // their requests in per-tenant order (FIFO is about one tenant's
      // lane, so cross-tenant interleaving is free).
      for (size_t t = s * (kTenants / kSubmitters);
           t < (s + 1) * (kTenants / kSubmitters); ++t) {
        std::vector<std::future<QueryService::Result>> futures;
        for (size_t r = 0; r < kRequestsPerTenant; ++r) {
          auto submitted = service.Submit(
              TenantName(t),
              QueryRequest{TenantName(t), plan_of(t), PolicyFor(t, r)});
          ASSERT_TRUE(submitted.ok()) << submitted.status();
          futures.push_back(std::move(*submitted));
        }
        for (size_t r = 0; r < kRequestsPerTenant; ++r) {
          results[t][r] = futures[r].get();
        }
      }
    });
  }
  for (std::thread& s : submitters) s.join();
  service.Drain();

  // (1) + (2): FIFO per tenant, admission-epoch pinning, and the global
  // execution order is a permutation of 1..N.
  constexpr size_t kTotal = kTenants * kRequestsPerTenant;
  std::vector<uint64_t> seen_seqs;
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t r = 0; r < kRequestsPerTenant; ++r) {
      ASSERT_TRUE(results[t][r].ok()) << results[t][r].status();
      const Served& served = *results[t][r];
      EXPECT_EQ(served.admission_epoch, served.outcome.moqp.snapshot_epoch);
      EXPECT_GT(served.feedback_epoch, served.admission_epoch);
      if (r > 0) {
        EXPECT_LT(results[t][r - 1]->execution_seq, served.execution_seq)
            << "tenant " << t << " executed out of submission order";
      }
      seen_seqs.push_back(served.execution_seq);
    }
  }
  std::sort(seen_seqs.begin(), seen_seqs.end());
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_EQ(seen_seqs[i], i + 1);
  }

  // (3): serial replay of the recorded execution order reproduces every
  // outcome.
  std::vector<std::pair<uint64_t, std::pair<size_t, size_t>>> order;
  for (size_t t = 0; t < kTenants; ++t) {
    for (size_t r = 0; r < kRequestsPerTenant; ++r) {
      order.push_back({results[t][r]->execution_seq, {t, r}});
    }
  }
  std::sort(order.begin(), order.end());
  for (const auto& [seq, who] : order) {
    const auto [t, r] = who;
    const Served& served = *results[t][r];
    auto replayed =
        replay_system.RunQuery(TenantName(t), plan_of(t), PolicyFor(t, r));
    ASSERT_TRUE(replayed.ok()) << replayed.status();
    SCOPED_TRACE("seq " + std::to_string(seq) + " tenant " +
                 std::to_string(t) + " request " + std::to_string(r));
    EXPECT_EQ(served.outcome.moqp.chosen_plan().ToString(),
              replayed->moqp.chosen_plan().ToString());
    ASSERT_EQ(served.outcome.predicted.size(), replayed->predicted.size());
    for (size_t k = 0; k < replayed->predicted.size(); ++k) {
      EXPECT_EQ(served.outcome.predicted[k], replayed->predicted[k]);
    }
    EXPECT_DOUBLE_EQ(served.outcome.actual.seconds,
                     replayed->actual.seconds);
    EXPECT_DOUBLE_EQ(served.outcome.actual.dollars,
                     replayed->actual.dollars);
  }

  const ServeStats stats = service.stats();
  EXPECT_EQ(stats.served, kTotal);
  EXPECT_EQ(stats.failed, 0u);
  EXPECT_EQ(stats.admission.accepted, kTotal);
  EXPECT_EQ(stats.service_latency.count(), kTotal);
}

TEST(ServeStressTest, SixtyFourTenantsReplayBitIdentical) {
  ServeAndReplay({MakeExample21Query().ValueOrDie()});
}

// Tenants bound to three logical plans: every slot asks the optimizer's
// shared plan-space memo for all three while the replay stays exact.
TEST(ServeStressTest, TenantsOnSeveralLogicalPlansReplayBitIdentical) {
  std::vector<QueryPlan> plans;
  plans.push_back(MakeExample21Query().ValueOrDie());
  QueryPlan pruned = MakeExample21Query().ValueOrDie();
  for (PlanNode* node : pruned.MutableNodes()) {
    if (node->kind == OperatorKind::kScan) node->scan_fraction = 0.5;
  }
  plans.push_back(std::move(pruned));
  plans.push_back(MakeImagingCohortQuery().ValueOrDie());
  ServeAndReplay(plans);
}

}  // namespace
}  // namespace midas

// Concurrent OptimizeQuery through one system's plan-space memo: threads
// cycle through more distinct logical plans than the memo holds, so plans
// are admitted, shared and evicted while other threads read them, and
// every outcome must equal a serial run's on an identical system. Runs
// under tsan via scripts/check.sh.

#include <algorithm>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "midas/medical.h"
#include "midas/midas.h"
#include "support/moqp_testing.h"

namespace midas {
namespace {

constexpr size_t kVariants =
    MultiObjectiveOptimizer::kPlanSpaceMemoCapacity + 8;
constexpr size_t kRounds = 3;

MidasSystem MakeSystem() {
  Federation federation = Federation::PaperFederation();
  PlaceMedicalTables(&federation).CheckOK();
  return MidasSystem(std::move(federation),
                     MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie());
}

// Example 2.1 with its Patient scan pruned to a fraction of its own.
QueryPlan Variant(size_t i) {
  QueryPlan plan = MakeExample21Query().ValueOrDie();
  for (PlanNode* node : plan.MutableNodes()) {
    if (node->kind == OperatorKind::kScan) {
      node->scan_fraction = 1.0 - 0.01 * static_cast<double>(i);
      break;
    }
  }
  return plan;
}

QueryRequest RequestFor(size_t i) {
  QueryPolicy policy;
  const double w = 0.2 + 0.6 * static_cast<double>(i % 5) / 4.0;
  policy.weights = {w, 1.0 - w};
  return QueryRequest{"s", Variant(i), policy};
}

TEST(PlanSpaceMemoConcurrencyTest, ThreadsOverMoreVariantsThanTheMemoHolds) {
  MidasSystem shared = MakeSystem();
  MidasSystem reference = MakeSystem();
  const QueryPlan example = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(shared.Bootstrap("s", example, 24).ok());
  ASSERT_TRUE(reference.Bootstrap("s", example, 24).ok());

  std::vector<QueryOutcome> serial;
  const auto reference_snapshot = reference.modelling().Snapshot();
  for (size_t i = 0; i < kVariants; ++i) {
    serial.push_back(
        reference.OptimizeQuery(reference_snapshot, RequestFor(i))
            .ValueOrDie());
  }

  const size_t threads = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  const auto snapshot = shared.modelling().Snapshot();
  struct Served {
    size_t variant;
    StatusOr<QueryOutcome> outcome;
  };
  std::vector<std::vector<Served>> served(threads);
  std::vector<std::thread> workers;
  for (size_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      // Each plan twice in a row, so it is admitted; offset starts, so
      // threads admit, hit and evict different plans at the same time.
      for (size_t r = 0; r < kRounds; ++r) {
        for (size_t k = 0; k < kVariants; ++k) {
          const size_t i = (k + 5 * t) % kVariants;
          const QueryRequest request = RequestFor(i);
          for (int twice = 0; twice < 2; ++twice) {
            served[t].push_back({i, shared.OptimizeQuery(snapshot, request)});
          }
        }
      }
    });
  }
  for (std::thread& worker : workers) worker.join();

  for (size_t t = 0; t < threads; ++t) {
    ASSERT_EQ(served[t].size(), kRounds * kVariants * 2);
    for (const Served& s : served[t]) {
      const std::string label =
          "thread " + std::to_string(t) + " variant " +
          std::to_string(s.variant);
      ASSERT_TRUE(s.outcome.ok()) << label << ": " << s.outcome.status();
      const QueryOutcome& want = serial[s.variant];
      ExpectSameResult(s.outcome->moqp, want.moqp, label);
      EXPECT_EQ(s.outcome->moqp.rows_costed, want.moqp.rows_costed) << label;
      EXPECT_EQ(s.outcome->predicted, want.predicted) << label;
      EXPECT_EQ(s.outcome->estimator, want.estimator) << label;
    }
  }
}

}  // namespace
}  // namespace midas

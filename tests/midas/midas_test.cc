#include "midas/midas.h"

#include <limits>

#include <gtest/gtest.h>

#include "midas/medical.h"

namespace midas {
namespace {

MidasSystem MakeSystem(MidasOptions options = MidasOptions()) {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  return MidasSystem(std::move(federation), std::move(catalog), options);
}

TEST(MidasSystemTest, BootstrapFillsHistory) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 10).ok());
  EXPECT_EQ(system.modelling().history().SizeOf("scope"), 10u);
}

TEST(MidasSystemTest, RunQueryEndToEnd) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.7, 0.3};
  auto outcome = system.RunQuery("scope", query, policy);
  ASSERT_TRUE(outcome.ok());
  EXPECT_FALSE(outcome->moqp.pareto_plans.empty());
  EXPECT_EQ(outcome->predicted.size(), 2u);
  EXPECT_GT(outcome->actual.seconds, 0.0);
  EXPECT_GT(outcome->actual.dollars, 0.0);
  EXPECT_EQ(outcome->estimator, "DREAM");
  // Feedback: the executed measurement was recorded.
  EXPECT_EQ(system.modelling().history().SizeOf("scope"), 17u);
}

TEST(MidasSystemTest, RunQueryWithoutHistoryFails) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  EXPECT_FALSE(system.RunQuery("cold", query, policy).ok());
}

TEST(MidasSystemTest, NonFinitePredictedCostFailsClosed) {
  // One finite but extreme measurement recorded into a bootstrapped scope
  // overflows the DREAM fit to a non-finite prediction. Clamped to 0.0,
  // that prediction would make a plan look free and RunQuery return OK
  // with a one-point front; it must fail instead and record nothing.
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  const TrainingSet* set =
      system.modelling().history().Get("scope").ValueOrDie();
  Observation poisoned = set->at(set->size() - 1);
  poisoned.timestamp += 1;
  poisoned.costs[0] = std::numeric_limits<double>::max();
  ASSERT_TRUE(system.modelling().Record("scope", poisoned).ok());
  const size_t recorded = system.modelling().history().SizeOf("scope");

  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  EXPECT_EQ(outcome.status().code(), StatusCode::kFailedPrecondition)
      << outcome.status().ToString();
  EXPECT_EQ(system.modelling().history().SizeOf("scope"), recorded);
}

TEST(MidasSystemTest, BmlEstimatorConfigurable) {
  MidasOptions options;
  options.estimator = EstimatorConfig::Bml(WindowPolicy::kLast2N);
  MidasSystem system = MakeSystem(options);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->estimator, "BML_2N");
}

TEST(MidasSystemTest, PredictPlanCostsMatchesMetricLayout) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  // Grab an annotated plan via a fresh enumeration inside RunQuery's path:
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  ASSERT_TRUE(outcome.ok());
  auto costs =
      system.PredictPlanCosts("scope", outcome->moqp.chosen_plan());
  ASSERT_TRUE(costs.ok());
  EXPECT_EQ(costs->size(), 2u);
  EXPECT_GE((*costs)[0], 0.0);
  EXPECT_GE((*costs)[1], 0.0);
}

TEST(MidasSystemTest, PredictionTracksActualWithinFactor) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 24).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  ASSERT_TRUE(outcome.ok());
  // The estimator should land within 3x of the realised cost in a
  // moderately drifting environment.
  EXPECT_LT(outcome->predicted[0], outcome->actual.seconds * 3.0);
  EXPECT_GT(outcome->predicted[0], outcome->actual.seconds / 3.0);
}

TEST(MidasSystemTest, WsmModeRunsEndToEnd) {
  MidasOptions options;
  options.moqp.algorithm = MoqpAlgorithm::kWsm;
  MidasSystem system = MakeSystem(options);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->moqp.pareto_plans.size(), 1u);
}

TEST(MidasSystemTest, ShardedRunQueryMatchesSerial) {
  // RunQuery with moqp.shards != 1 splits the candidate stream into
  // concurrent shard pipelines; at equal seed and history the outcome
  // must match the single stream bit for bit on every SIMD tier.
  MidasOptions serial_options;
  serial_options.seed = 321;
  MidasSystem serial = MakeSystem(serial_options);
  MidasOptions sharded_options = serial_options;
  sharded_options.moqp.shards = 2;
  MidasSystem sharded = MakeSystem(sharded_options);

  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(serial.Bootstrap("s", query, 16).ok());
  ASSERT_TRUE(sharded.Bootstrap("s", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto a = serial.RunQuery("s", query, policy);
  auto b = sharded.RunQuery("s", query, policy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a->moqp.pareto_costs.size(), b->moqp.pareto_costs.size());
  for (size_t p = 0; p < a->moqp.pareto_costs.size(); ++p) {
    ASSERT_EQ(a->moqp.pareto_costs[p].size(), b->moqp.pareto_costs[p].size());
    for (size_t k = 0; k < a->moqp.pareto_costs[p].size(); ++k) {
      SCOPED_TRACE("plan " + std::to_string(p) + " metric " +
                   std::to_string(k));
      EXPECT_EQ(b->moqp.pareto_costs[p][k], a->moqp.pareto_costs[p][k]);
    }
  }
  EXPECT_EQ(a->moqp.chosen, b->moqp.chosen);
  EXPECT_EQ(a->moqp.chosen_plan().ToString(), b->moqp.chosen_plan().ToString());
  ASSERT_EQ(a->predicted.size(), b->predicted.size());
  for (size_t k = 0; k < a->predicted.size(); ++k) {
    SCOPED_TRACE("predicted metric " + std::to_string(k));
    EXPECT_EQ(b->predicted[k], a->predicted[k]);
  }
  EXPECT_TRUE(a->moqp.shard_stats.empty());
  EXPECT_EQ(b->moqp.shard_stats.size(), 2u);
}

TEST(MidasSystemTest, DeterministicWithSameSeed) {
  MidasOptions options;
  options.seed = 777;
  MidasSystem a = MakeSystem(options);
  MidasSystem b = MakeSystem(options);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(a.Bootstrap("s", query, 12).ok());
  ASSERT_TRUE(b.Bootstrap("s", query, 12).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto oa = a.RunQuery("s", query, policy);
  auto ob = b.RunQuery("s", query, policy);
  ASSERT_TRUE(oa.ok());
  ASSERT_TRUE(ob.ok());
  EXPECT_DOUBLE_EQ(oa->actual.seconds, ob->actual.seconds);
  EXPECT_EQ(oa->predicted, ob->predicted);
}

}  // namespace
}  // namespace midas

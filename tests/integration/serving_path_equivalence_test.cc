// Serving path == per-plan path: MidasSystem::OptimizeQuery scores the
// candidate stream as feature rows through the batched snapshot predictor
// and builds plans only for the Pareto front. Its outcome must equal the
// per-plan pipeline — Optimize(CostPredictor) over EnumeratePhysical with
// ExtractFeatures + Modelling::Predict against the same pinned snapshot —
// bit for bit: Pareto costs, chosen index, plan strings and the predicted
// cost vector, at every shard count, with the prediction cache on and off,
// under policies that include the w = 0.5 tie and infeasible constraints.
// scripts/check.sh runs it under the default and force-scalar presets.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ires/features.h"
#include "midas/medical.h"
#include "midas/midas.h"

namespace midas {
namespace {

std::vector<QueryPolicy> Policies() {
  std::vector<QueryPolicy> policies;
  for (const Vector& weights :
       {Vector{0.5, 0.5}, Vector{0.9, 0.1}, Vector{0.2, 0.8}}) {
    QueryPolicy policy;
    policy.weights = weights;
    policies.push_back(policy);
  }
  QueryPolicy infeasible;  // nothing meets it: Algorithm 2 falls back
  infeasible.weights = {0.5, 0.5};
  infeasible.constraints = {1e-9, 1e-9};
  policies.push_back(infeasible);
  QueryPolicy budget;  // a money budget only
  budget.weights = {0.5, 0.5};
  budget.constraints = {1e9, 0.02};
  policies.push_back(budget);
  return policies;
}

struct Config {
  bool three_clouds = false;
  std::vector<int> node_counts;
  size_t m_max_windows = 0;
};

MidasSystem MakeSystem(const Config& config, size_t shards, bool cache) {
  Federation federation = config.three_clouds
                              ? Federation::ThreeCloudFederation()
                              : Federation::PaperFederation();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = 4242;
  options.moqp.enumerator.node_counts = config.node_counts;
  options.moqp.shards = shards;
  options.moqp.cache_predictions = cache;
  options.moqp.stream_chunk_size = 100;  // several chunks per query
  if (config.m_max_windows > 0) {
    options.estimator.dream.m_max =
        config.m_max_windows * (FeatureNames(federation).size() + 2);
  }
  return MidasSystem(std::move(federation),
                     MakeMedicalCatalog(0.05).ValueOrDie(), options);
}

void ExpectSameOutcome(const QueryOutcome& served, const MoqpResult& reference,
                       const std::string& label) {
  EXPECT_EQ(served.moqp.candidates_examined, reference.candidates_examined)
      << label;
  EXPECT_EQ(served.moqp.pareto_costs, reference.pareto_costs) << label;
  EXPECT_EQ(served.moqp.chosen, reference.chosen) << label;
  ASSERT_EQ(served.moqp.pareto_plans.size(), reference.pareto_plans.size())
      << label;
  for (size_t i = 0; i < reference.pareto_plans.size(); ++i) {
    EXPECT_EQ(served.moqp.pareto_plans[i].ToString(),
              reference.pareto_plans[i].ToString())
        << label << " plan " << i;
  }
  EXPECT_EQ(served.predicted, reference.chosen_costs()) << label;
  EXPECT_EQ(served.moqp.snapshot_epoch, reference.snapshot_epoch) << label;
}

TEST(ServingPathEquivalenceTest, OptimizeQueryMatchesPerPlanPredictor) {
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  const std::vector<Config> configs = {
      {false, {1, 2, 4, 8}, 0},
      {true, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2},
  };
  const std::string scope = "s";
  for (const Config& config : configs) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}}) {
      for (bool cache : {false, true}) {
        MidasSystem system = MakeSystem(config, shards, cache);
        ASSERT_TRUE(system.Bootstrap(scope, query, 20).ok());
        // The reference: the per-plan pipeline with the same options and
        // its own prediction cache.
        const MultiObjectiveOptimizer reference(
            &system.federation(), &system.catalog(), system.options().moqp);
        const uint64_t cache_namespace = std::hash<std::string>{}(scope);
        for (int round = 0; round < 3; ++round) {
          const auto snapshot = system.modelling().Snapshot();
          const auto per_plan =
              [&](const QueryPlan& plan) -> StatusOr<Vector> {
            MIDAS_ASSIGN_OR_RETURN(Vector features,
                                   ExtractFeatures(system.federation(), plan));
            return system.modelling().Predict(*snapshot, scope, features,
                                              system.options().estimator);
          };
          const std::vector<QueryPolicy> policies = Policies();
          for (size_t p = 0; p < policies.size(); ++p) {
            const std::string label =
                std::string(config.three_clouds ? "three-cloud" : "paper") +
                " shards=" + std::to_string(shards) +
                " cache=" + std::to_string(cache) +
                " round=" + std::to_string(round) +
                " policy=" + std::to_string(p);
            auto served = system.OptimizeQuery(
                snapshot, QueryRequest{scope, query, policies[p]});
            ASSERT_TRUE(served.ok()) << label << served.status().ToString();
            auto expected =
                reference.Optimize(query, per_plan, policies[p],
                                   snapshot->epoch(), cache_namespace);
            ASSERT_TRUE(expected.ok()) << label;
            ExpectSameOutcome(*served, *expected, label);
          }
          // Grow the history so the next round fits another window.
          ASSERT_TRUE(system.RunQuery(scope, query, policies[round]).ok());
        }
      }
    }
  }
}

}  // namespace
}  // namespace midas

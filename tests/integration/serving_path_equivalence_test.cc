// Serving path == per-plan replay: MidasSystem::OptimizeQuery scores the
// candidate stream as feature rows through the batched snapshot predictor
// and builds plans only for the Pareto front. Its outcome must equal an
// independent replay kept inside this test — EnumeratePhysical, then
// ExtractFeatures and Modelling::Predict per plan against the same pinned
// snapshot, ParetoFrontIndices with first-representative dedup, and
// BestInPareto — bit for bit: Pareto costs, chosen index, plan strings and
// the predicted cost vector, at every shard count, under policies that
// include the w = 0.5 tie and infeasible constraints. The per-plan
// Optimize(CostPredictor) runs the same fold as the served path, so it is
// checked against the replay too rather than serving as the reference.
// This is the replay the end-to-end benchmark's output checks run.
// scripts/check.sh runs it under the default and force-scalar presets.

#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "ires/features.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "optimizer/pareto.h"
#include "query/enumerator.h"

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

MidasSystem MakeSystem(const Config& config, size_t shards) {
  Federation federation = config.three_clouds
                              ? Federation::ThreeCloudFederation()
                              : Federation::PaperFederation();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = 4242;
  options.moqp.enumerator.node_counts = config.node_counts;
  options.moqp.shards = shards;
  options.moqp.stream_chunk_size = 100;  // several chunks per query
  if (config.m_max_windows > 0) {
    options.estimator.dream.m_max =
        config.m_max_windows * (FeatureNames(federation).size() + 2);
  }
  return MidasSystem(std::move(federation),
                     MakeMedicalCatalog(0.05).ValueOrDie(), options);
}

// The replay's result: the distinct Pareto front in enumeration order, its
// plans and Algorithm 2's choice.
struct Reference {
  size_t candidates = 0;
  /// Distinct feature rows among the candidates.
  size_t distinct_rows = 0;
  std::vector<Vector> front;
  std::vector<std::string> plans;
  size_t chosen = 0;
};

Reference Replay(MidasSystem& system, const EstimatorSnapshot& snapshot,
                 const std::string& scope, const QueryPlan& query,
                 const QueryPolicy& policy) {
  const PlanEnumerator enumerator(&system.federation(), &system.catalog(),
                                  system.options().moqp.enumerator);
  const std::vector<QueryPlan> plans =
      enumerator.EnumeratePhysical(query).ValueOrDie();
  std::vector<Vector> costs(plans.size());
  std::unordered_set<Vector, VectorHash> rows;
  for (size_t i = 0; i < plans.size(); ++i) {
    const Vector features =
        ExtractFeatures(system.federation(), plans[i]).ValueOrDie();
    rows.insert(features);
    costs[i] = system.modelling()
                   .Predict(snapshot, scope, features,
                            system.options().estimator)
                   .ValueOrDie();
  }
  Reference reference;
  reference.candidates = plans.size();
  reference.distinct_rows = rows.size();
  std::unordered_set<Vector, VectorHash> seen;
  for (size_t idx : ParetoFrontIndices(costs, /*threads=*/1)) {
    if (!seen.insert(costs[idx]).second) continue;
    reference.front.push_back(costs[idx]);
    reference.plans.push_back(plans[idx].ToString());
  }
  reference.chosen = BestInPareto(reference.front, policy).ValueOrDie();
  return reference;
}

// The served path costs one row per distinct feature row; the per-plan
// path costs every candidate.
void ExpectMatchesReplay(const MoqpResult& result, const Reference& reference,
                         size_t rows_costed, const std::string& label) {
  EXPECT_EQ(result.candidates_examined, reference.candidates) << label;
  EXPECT_EQ(result.rows_costed, rows_costed) << label;
  EXPECT_EQ(result.pareto_costs, reference.front) << label;
  EXPECT_EQ(result.chosen, reference.chosen) << label;
  ASSERT_EQ(result.pareto_plans.size(), reference.plans.size()) << label;
  for (size_t i = 0; i < reference.plans.size(); ++i) {
    EXPECT_EQ(result.pareto_plans[i].ToString(), reference.plans[i])
        << label << " plan " << i;
  }
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
      MidasSystem system = MakeSystem(config, shards);
      ASSERT_TRUE(system.Bootstrap(scope, query, 20).ok());
      const MultiObjectiveOptimizer per_plan_optimizer(
          &system.federation(), &system.catalog(), system.options().moqp);
      for (int round = 0; round < 3; ++round) {
        const auto snapshot = system.modelling().Snapshot();
        const auto per_plan = [&](const QueryPlan& plan) -> StatusOr<Vector> {
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
              " round=" + std::to_string(round) +
              " policy=" + std::to_string(p);
          const Reference reference =
              Replay(system, *snapshot, scope, query, policies[p]);
          auto served = system.OptimizeQuery(
              snapshot, QueryRequest{scope, query, policies[p]});
          ASSERT_TRUE(served.ok()) << label << served.status().ToString();
          ExpectMatchesReplay(served->moqp, reference,
                              reference.distinct_rows, label);
          EXPECT_EQ(served->predicted, reference.front[reference.chosen])
              << label;
          EXPECT_EQ(served->moqp.snapshot_epoch, snapshot->epoch()) << label;
          auto optimized =
              per_plan_optimizer.Optimize(query, per_plan, policies[p]);
          ASSERT_TRUE(optimized.ok()) << label;
          ExpectMatchesReplay(*optimized, reference, reference.candidates,
                              label + " per-plan");
        }
        // Grow the history so the next round fits another window.
        ASSERT_TRUE(system.RunQuery(scope, query, policies[round]).ok());
      }
    }
  }
}

// The served shapes of the end-to-end benchmark: Example 2.1 on the paper
// federation at VM counts {1,2,4,8} and 1-8, and on the three-cloud
// federation at 1-16. Only leader strata reach the predictor: one row per
// distinct feature row.
TEST(ServingPathEquivalenceTest, ServedShapesCostEachDistinctRowOnce) {
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  struct Shape {
    Config config;
    size_t candidates;
    size_t rows_costed;
  };
  const std::vector<Shape> shapes = {
      {{false, {1, 2, 4, 8}, 0}, 96, 16},
      {{false, {1, 2, 3, 4, 5, 6, 7, 8}, 2}, 384, 64},
      {{true,
        {1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16},
        2},
       8960,
       2176},
  };
  const std::string scope = "s";
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  for (const Shape& shape : shapes) {
    for (size_t shards : {size_t{1}, size_t{4}}) {
      MidasSystem system = MakeSystem(shape.config, shards);
      ASSERT_TRUE(system.Bootstrap(scope, query, 20).ok());
      const auto snapshot = system.modelling().Snapshot();
      const std::string label = std::to_string(shape.candidates) +
                                " shards=" + std::to_string(shards);
      const Reference reference =
          Replay(system, *snapshot, scope, query, policy);
      EXPECT_EQ(reference.candidates, shape.candidates) << label;
      EXPECT_EQ(reference.distinct_rows, shape.rows_costed) << label;
      auto served =
          system.OptimizeQuery(snapshot, QueryRequest{scope, query, policy});
      ASSERT_TRUE(served.ok()) << label << served.status().ToString();
      ExpectMatchesReplay(served->moqp, reference, shape.rows_costed, label);
    }
  }
}

}  // namespace
}  // namespace midas

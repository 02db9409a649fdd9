#include "ires/moo_optimizer.h"

#include <algorithm>
#include <atomic>
#include <limits>
#include <set>

#include <gtest/gtest.h>

#include "engine/simulator.h"
#include "ires/features.h"
#include "optimizer/pareto.h"
#include "support/moqp_testing.h"

namespace midas {
namespace {

struct Environment {
  Federation federation;
  Catalog catalog;
  SiteId site_a = 0;
  SiteId site_b = 0;
};

Environment MakeEnvironment() {
  Environment env;
  SiteConfig a;
  a.name = "A";
  a.engines = {EngineKind::kHive};
  a.node_type = {ProviderKind::kAmazon, "a1.xlarge", 4, 8.0, 0.0, 0.0197};
  a.max_nodes = 8;
  env.site_a = env.federation.AddSite(a).ValueOrDie();
  SiteConfig b;
  b.name = "B";
  b.engines = {EngineKind::kPostgres};
  b.node_type = {ProviderKind::kMicrosoft, "B2S", 2, 4.0, 8.0, 0.042};
  b.max_nodes = 8;
  env.site_b = env.federation.AddSite(b).ValueOrDie();
  NetworkLink wan;
  wan.bandwidth_mbps = 100.0;
  wan.egress_price_per_gib = 0.09;
  env.federation.network()
      .SetSymmetricLink(env.site_a, env.site_b, wan)
      .CheckOK();

  TableDef t1;
  t1.name = "t1";
  t1.row_count = 200000;
  t1.columns = {{"id", ColumnType::kInt, 8.0, 200000},
                {"pay", ColumnType::kString, 72.0, 200000}};
  env.catalog.AddTable(t1).CheckOK();
  TableDef t2;
  t2.name = "t2";
  t2.row_count = 5000;
  t2.columns = {{"id", ColumnType::kInt, 8.0, 5000}};
  env.catalog.AddTable(t2).CheckOK();
  env.federation.PlaceTable("t1", env.site_a, EngineKind::kHive).CheckOK();
  env.federation.PlaceTable("t2", env.site_b, EngineKind::kPostgres)
      .CheckOK();
  return env;
}

QueryPlan LogicalJoin() {
  return QueryPlan(MakeJoin(MakeScan("t1"), MakeScan("t2"), "id", "id"));
}

// Cost predictor backed by the deterministic simulator (oracle predictor).
MultiObjectiveOptimizer::CostPredictor OraclePredictor(
    ExecutionSimulator* sim) {
  return [sim](const QueryPlan& plan) -> StatusOr<Vector> {
    MIDAS_ASSIGN_OR_RETURN(Measurement m, sim->ExpectedCostAt(plan, 0));
    return Vector{m.seconds, m.dollars};
  };
}

SimulatorOptions Deterministic() {
  SimulatorOptions options;
  options.stochastic = false;
  options.variance = VarianceOptions{};
  options.variance.drift_amplitude = 0.0;
  options.variance.ar_sigma = 0.0;
  options.variance.noise_sigma = 0.0;
  return options;
}

// Synthetic linear costs of one feature row: a pure, thread-safe function
// of the features, shared by both predictor kinds so their results must
// agree bit for bit.
Vector LinearCosts(const double* features, size_t n) {
  double time = 1.0;
  double money = 0.1;
  for (size_t c = 0; c < n; ++c) {
    time += (0.3 + 0.05 * c) * features[c];
    money += 0.01 * features[c];
  }
  return {time, money};
}

MultiObjectiveOptimizer::BatchCostPredictor LinearBatchPredictor() {
  return [](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows(), 2, 0.0);
    for (size_t r = 0; r < features.rows(); ++r) {
      costs->SetRow(r, LinearCosts(features.RowData(r), features.cols()));
    }
    return Status::OK();
  };
}

// The same costs through the plan: every candidate's plan is materialized
// and featurized.
MultiObjectiveOptimizer::CostPredictor LinearPlanPredictor(
    const Federation* federation) {
  return [federation](const QueryPlan& plan) -> StatusOr<Vector> {
    MIDAS_ASSIGN_OR_RETURN(Vector x, ExtractFeatures(*federation, plan));
    return LinearCosts(x.data(), x.size());
  };
}

TEST(MoqpTest, ExhaustiveParetoReturnsNonDominatedSet) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto result = optimizer.Optimize(LogicalJoin(),
                                   OraclePredictor(&sim), policy);
  ASSERT_TRUE(result.ok());
  EXPECT_GT(result->candidates_examined, 10u);
  ASSERT_FALSE(result->pareto_costs.empty());
  for (size_t i = 0; i < result->pareto_costs.size(); ++i) {
    for (size_t j = 0; j < result->pareto_costs.size(); ++j) {
      if (i == j) continue;
      EXPECT_FALSE(
          Dominates(result->pareto_costs[i], result->pareto_costs[j]));
    }
  }
  EXPECT_LT(result->chosen, result->pareto_plans.size());
}

TEST(MoqpTest, ParetoCostsAreDeduplicated) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto result = optimizer.Optimize(LogicalJoin(),
                                   OraclePredictor(&sim), policy);
  ASSERT_TRUE(result.ok());
  std::set<Vector> unique(result->pareto_costs.begin(),
                          result->pareto_costs.end());
  EXPECT_EQ(unique.size(), result->pareto_costs.size());
}

TEST(MoqpTest, WeightsChangeChosenPlan) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy time_first;
  time_first.weights = {1.0, 0.0};
  QueryPolicy money_first;
  money_first.weights = {0.0, 1.0};
  auto fast = optimizer.Optimize(LogicalJoin(), OraclePredictor(&sim),
                                 time_first);
  auto cheap = optimizer.Optimize(LogicalJoin(), OraclePredictor(&sim),
                                  money_first);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(cheap.ok());
  EXPECT_LE(fast->chosen_costs()[0], cheap->chosen_costs()[0]);
  EXPECT_GE(fast->chosen_costs()[1], cheap->chosen_costs()[1]);
}

TEST(MoqpTest, WsmReturnsSinglePlan) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  MoqpOptions options;
  options.algorithm = MoqpAlgorithm::kWsm;
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog, options);
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto result = optimizer.Optimize(LogicalJoin(),
                                   OraclePredictor(&sim), policy);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->pareto_plans.size(), 1u);
  EXPECT_EQ(result->chosen, 0u);
}

TEST(MoqpTest, NsgaVariantsFindSubsetOfExhaustiveFront) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};

  MultiObjectiveOptimizer exhaustive(&env.federation, &env.catalog);
  auto full = exhaustive.Optimize(LogicalJoin(), OraclePredictor(&sim),
                                  policy);
  ASSERT_TRUE(full.ok());
  std::set<Vector> full_front(full->pareto_costs.begin(),
                              full->pareto_costs.end());

  for (MoqpAlgorithm algorithm :
       {MoqpAlgorithm::kNsga2, MoqpAlgorithm::kNsgaG}) {
    MoqpOptions options;
    options.algorithm = algorithm;
    options.nsga2.population_size = 40;
    options.nsga2.generations = 40;
    options.nsga_g.population_size = 40;
    options.nsga_g.generations = 40;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    auto result = optimizer.Optimize(LogicalJoin(),
                                     OraclePredictor(&sim), policy);
    ASSERT_TRUE(result.ok()) << MoqpAlgorithmName(algorithm);
    EXPECT_FALSE(result->pareto_costs.empty());
    // Every evolved front point must be a true candidate cost vector, and
    // non-dominated within itself.
    for (size_t i = 0; i < result->pareto_costs.size(); ++i) {
      for (size_t j = 0; j < result->pareto_costs.size(); ++j) {
        if (i != j) {
          EXPECT_FALSE(Dominates(result->pareto_costs[i],
                                 result->pareto_costs[j]));
        }
      }
    }
  }
}

TEST(MoqpTest, ConstraintsRouteThroughBestInPareto) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {1.0, 0.0};

  // First find the overall cost range, then constrain money to the median.
  auto unconstrained = optimizer.Optimize(
      LogicalJoin(), OraclePredictor(&sim), policy);
  ASSERT_TRUE(unconstrained.ok());
  double max_money = 0.0;
  for (const Vector& c : unconstrained->pareto_costs) {
    max_money = std::max(max_money, c[1]);
  }
  policy.constraints = {1e12, max_money * 0.5};
  auto constrained = optimizer.Optimize(
      LogicalJoin(), OraclePredictor(&sim), policy);
  ASSERT_TRUE(constrained.ok());
  EXPECT_LE(constrained->chosen_costs()[1], max_money * 0.5 + 1e-12);
}

TEST(MoqpTest, StreamingMatchesMaterializedAcrossChunkSizes) {
  // The feature-row pipeline never builds a candidate's plan; the per-plan
  // pipeline materializes every one. Same costs, so the same result at
  // every chunk size.
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  MultiObjectiveOptimizer baseline_opt(&env.federation, &env.catalog);
  auto baseline = baseline_opt.Optimize(
      LogicalJoin(), LinearPlanPredictor(&env.federation), policy);
  ASSERT_TRUE(baseline.ok());
  // One default-sized chunk holds the whole (small) candidate set.
  EXPECT_EQ(baseline->peak_resident_candidates,
            baseline->candidates_examined);

  for (size_t chunk :
       {size_t{0}, size_t{1}, size_t{7}, size_t{100000}}) {
    MoqpOptions options;
    options.stream_chunk_size = chunk;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    auto streamed =
        optimizer.Optimize(LogicalJoin(), LinearBatchPredictor(), policy);
    ASSERT_TRUE(streamed.ok()) << "chunk=" << chunk;
    ExpectSameResult(*baseline, *streamed, "chunk=" + std::to_string(chunk));
    EXPECT_LE(streamed->peak_resident_candidates,
              baseline->peak_resident_candidates)
        << "chunk=" << chunk;
    if (chunk == 1) {
      // O(front + chunk) beats O(candidates) once chunks are small.
      EXPECT_LT(streamed->peak_resident_candidates,
                baseline->peak_resident_candidates);
    }
  }
}

TEST(MoqpTest, BadPolicyRejectedBeforeAnyPredictorCall) {
  // Policies arrive from service clients. NaN fails every comparison and
  // +Inf passes the sign checks, so both must be rejected explicitly, and
  // before the plan space is costed.
  Environment env = MakeEnvironment();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<QueryPolicy> bad(5);
  bad[0].weights = {0.5, nan};
  bad[1].weights = {inf, 1.0};
  bad[2].weights = {0.0, 0.0};
  bad[3].weights = {0.5, 0.5};
  bad[3].constraints = {nan};
  bad[4].weights = {0.5, 0.5};
  bad[4].constraints = {1e9, 1e9, 1e9};
  std::atomic<size_t> calls{0};
  const auto per_plan = [&calls](const QueryPlan&) -> StatusOr<Vector> {
    calls.fetch_add(1);
    return Vector{1.0, 1.0};
  };
  const MultiObjectiveOptimizer::BatchCostPredictor batch =
      [&calls](const Matrix& features, Matrix* costs) -> Status {
    calls.fetch_add(1);
    *costs = Matrix(features.rows(), 2, 1.0);
    return Status::OK();
  };
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  for (size_t p = 0; p < bad.size(); ++p) {
    EXPECT_EQ(optimizer.Optimize(LogicalJoin(), per_plan, bad[p])
                  .status()
                  .code(),
              StatusCode::kInvalidArgument)
        << "policy " << p;
    EXPECT_EQ(
        optimizer.Optimize(LogicalJoin(), batch, bad[p]).status().code(),
        StatusCode::kInvalidArgument)
        << "policy " << p;
  }
  EXPECT_EQ(calls.load(), 0u);

  // An infinite constraint is a valid "no limit".
  QueryPolicy unbounded;
  unbounded.weights = {0.5, 0.5};
  unbounded.constraints = {inf, inf};
  EXPECT_TRUE(optimizer.Optimize(LogicalJoin(), batch, unbounded).ok());
}

TEST(MoqpTest, NullPredictorRejected) {
  Environment env = MakeEnvironment();
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  EXPECT_FALSE(optimizer
                   .Optimize(LogicalJoin(),
                             MultiObjectiveOptimizer::CostPredictor(nullptr),
                             policy)
                   .ok());
  EXPECT_FALSE(
      optimizer
          .Optimize(LogicalJoin(),
                    MultiObjectiveOptimizer::BatchCostPredictor(nullptr),
                    policy)
          .ok());
}

TEST(MoqpTest, PredictorArityMismatchRejected) {
  Environment env = MakeEnvironment();
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto bad_predictor = [](const QueryPlan&) -> StatusOr<Vector> {
    return Vector{1.0};  // one metric, policy expects two
  };
  EXPECT_FALSE(optimizer.Optimize(LogicalJoin(), bad_predictor, policy).ok());
}

TEST(MoqpTest, NonFinitePredictedCostsFailClosed) {
  // A NaN cost is never dominated, so it would sit on every front; both
  // predictor kinds reject it (and infinities) instead, under every
  // algorithm.
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  for (double bad : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity()}) {
    auto per_plan = [bad](const QueryPlan&) -> StatusOr<Vector> {
      return Vector{1.0, bad};
    };
    MultiObjectiveOptimizer::BatchCostPredictor batch =
        [bad](const Matrix& features, Matrix* costs) -> Status {
      *costs = Matrix(features.rows(), 2, 1.0);
      (*costs)(features.rows() - 1, 0) = bad;
      return Status::OK();
    };
    for (MoqpAlgorithm algorithm :
         {MoqpAlgorithm::kExhaustivePareto, MoqpAlgorithm::kWsm}) {
      MoqpOptions options;
      options.algorithm = algorithm;
      MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                        options);
      EXPECT_EQ(optimizer.Optimize(LogicalJoin(), per_plan, policy)
                    .status()
                    .code(),
                StatusCode::kFailedPrecondition);
      EXPECT_EQ(
          optimizer.Optimize(LogicalJoin(), batch, policy).status().code(),
          StatusCode::kFailedPrecondition);
    }
  }
}

TEST(MoqpAlgorithmTest, Names) {
  EXPECT_EQ(MoqpAlgorithmName(MoqpAlgorithm::kExhaustivePareto),
            "exhaustive-pareto");
  EXPECT_EQ(MoqpAlgorithmName(MoqpAlgorithm::kNsga2), "nsga2");
  EXPECT_EQ(MoqpAlgorithmName(MoqpAlgorithm::kNsgaG), "nsga-g");
  EXPECT_EQ(MoqpAlgorithmName(MoqpAlgorithm::kWsm), "wsm");
}

}  // namespace
}  // namespace midas

// Parallel == serial equivalence: every parallel knob of the MOQP
// pipeline (candidate-stream shards, NSGA offspring evaluation, bagging
// ensemble training) must produce bit-identical results at any thread
// count, and across repeated runs at the same thread count. Where a case
// compares feature-row against per-plan costing, the predictor is a DREAM
// estimate whose batch scoring runs Predict's per-row dot, so the costs
// are bitwise equal on every SIMD tier.

#include <atomic>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "engine/simulator.h"
#include "ires/features.h"
#include "ires/moo_optimizer.h"
#include "ml/bagging.h"
#include "regression/dream.h"
#include "optimizer/nsga2.h"
#include "optimizer/nsga_g.h"
#include "optimizer/problem.h"
#include "support/moqp_testing.h"

namespace midas {
namespace {

constexpr size_t kThreadCounts[] = {1, 2, 8};
constexpr size_t kChunkSizes[] = {0, 1, 7, 1024};

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

SimulatorOptions Deterministic() {
  SimulatorOptions options;
  options.stochastic = false;
  options.variance = VarianceOptions{};
  options.variance.drift_amplitude = 0.0;
  options.variance.ar_sigma = 0.0;
  options.variance.noise_sigma = 0.0;
  return options;
}

MultiObjectiveOptimizer::CostPredictor OraclePredictor(
    ExecutionSimulator* sim, std::atomic<size_t>* calls = nullptr) {
  return [sim, calls](const QueryPlan& plan) -> StatusOr<Vector> {
    if (calls != nullptr) calls->fetch_add(1, std::memory_order_relaxed);
    MIDAS_ASSIGN_OR_RETURN(Measurement m, sim->ExpectedCostAt(plan, 0));
    return Vector{m.seconds, m.dollars};
  };
}

TEST(ParallelEquivalenceTest, MoqpExhaustiveIdenticalAcrossThreadCounts) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};

  MultiObjectiveOptimizer serial(&env.federation, &env.catalog);
  auto baseline =
      serial.Optimize(LogicalJoin(), OraclePredictor(&sim), policy);
  ASSERT_TRUE(baseline.ok());

  for (size_t shards : kThreadCounts) {
    MoqpOptions options;
    options.shards = shards;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    // Repeated runs at the same shard count must also agree (no
    // scheduling-order leakage into results).
    for (int rep = 0; rep < 2; ++rep) {
      auto result =
          optimizer.Optimize(LogicalJoin(), OraclePredictor(&sim), policy);
      ASSERT_TRUE(result.ok());
      ExpectSameResult(*baseline, *result,
                       "shards=" + std::to_string(shards) + " rep=" +
                           std::to_string(rep));
    }
  }
}

TEST(ParallelEquivalenceTest, MoqpNsgaIdenticalAcrossThreadCounts) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};

  for (MoqpAlgorithm algorithm :
       {MoqpAlgorithm::kNsga2, MoqpAlgorithm::kNsgaG}) {
    MoqpResult baseline;
    bool have_baseline = false;
    for (size_t threads : kThreadCounts) {
      MoqpOptions options;
      options.algorithm = algorithm;
      options.shards = threads;
      options.nsga2.population_size = 24;
      options.nsga2.generations = 12;
      options.nsga2.evaluation_threads = threads;
      options.nsga_g.population_size = 24;
      options.nsga_g.generations = 12;
      options.nsga_g.evaluation_threads = threads;
      MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                        options);
      auto result =
          optimizer.Optimize(LogicalJoin(), OraclePredictor(&sim), policy);
      ASSERT_TRUE(result.ok()) << MoqpAlgorithmName(algorithm);
      if (!have_baseline) {
        baseline = *result;
        have_baseline = true;
      } else {
        ExpectSameResult(baseline, *result,
                         MoqpAlgorithmName(algorithm) + " threads=" +
                             std::to_string(threads));
      }
    }
  }
}

TEST(ParallelEquivalenceTest, Nsga2PopulationBitIdentical) {
  MooResult baseline;
  bool have_baseline = false;
  for (size_t threads : kThreadCounts) {
    Nsga2Options options;
    options.population_size = 20;
    options.generations = 15;
    options.seed = 11;
    options.evaluation_threads = threads;
    auto result = Nsga2(options).Optimize(Zdt1(8));
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    if (!have_baseline) {
      baseline = *result;
      have_baseline = true;
      continue;
    }
    ASSERT_EQ(result->population.size(), baseline.population.size());
    for (size_t i = 0; i < baseline.population.size(); ++i) {
      EXPECT_EQ(result->population[i].variables,
                baseline.population[i].variables)
          << "threads=" << threads << " individual " << i;
      EXPECT_EQ(result->population[i].objectives,
                baseline.population[i].objectives)
          << "threads=" << threads << " individual " << i;
    }
    EXPECT_EQ(result->front, baseline.front) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, NsgaGPopulationBitIdentical) {
  MooResult baseline;
  bool have_baseline = false;
  for (size_t threads : kThreadCounts) {
    NsgaGOptions options;
    options.population_size = 20;
    options.generations = 15;
    options.seed = 11;
    options.evaluation_threads = threads;
    auto result = NsgaG(options).Optimize(Zdt2(8));
    ASSERT_TRUE(result.ok()) << "threads=" << threads;
    if (!have_baseline) {
      baseline = *result;
      have_baseline = true;
      continue;
    }
    ASSERT_EQ(result->population.size(), baseline.population.size());
    for (size_t i = 0; i < baseline.population.size(); ++i) {
      EXPECT_EQ(result->population[i].variables,
                baseline.population[i].variables)
          << "threads=" << threads << " individual " << i;
    }
    EXPECT_EQ(result->front, baseline.front) << "threads=" << threads;
  }
}

TEST(ParallelEquivalenceTest, BaggingEnsembleBitIdentical) {
  std::vector<Vector> xs;
  Vector ys;
  for (int i = 0; i < 60; ++i) {
    const double x = 0.1 * i;
    xs.push_back({x});
    ys.push_back(3.0 * x + 1.0);
  }
  const std::vector<Vector> probes = {{0.15}, {2.5}, {4.95}};

  std::vector<double> baseline;
  for (size_t threads : kThreadCounts) {
    BaggingOptions options;
    options.num_estimators = 12;
    options.seed = 19;
    options.threads = threads;
    BaggingLearner learner(options);
    ASSERT_TRUE(learner.Fit(xs, ys).ok()) << "threads=" << threads;
    EXPECT_EQ(learner.num_fitted_estimators(), 12u);
    std::vector<double> predictions;
    for (const Vector& p : probes) {
      predictions.push_back(learner.Predict(p).ValueOrDie());
    }
    if (baseline.empty()) {
      baseline = predictions;
    } else {
      EXPECT_EQ(predictions, baseline) << "threads=" << threads;
    }
  }
}

TEST(ParallelEquivalenceTest, BatchedCostingMatchesScalarSerial) {
  // The feature-row costing stage (one PredictBatch per chunk) must
  // reproduce the serial per-plan pipeline: same front, same chosen plan,
  // at every shard count and chunk size. The predictor is a captured DREAM
  // estimate, whose PredictBatch runs the same per-row dot as its Predict,
  // so the whole result is bitwise equal on every SIMD tier.
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};

  // Train a DREAM estimate on a synthetic linear history over the plan
  // feature layout, then freeze it so scalar and batch paths share one
  // model. The estimate only sees feature vectors, so synthetic training
  // data exercises exactly the same prediction code as live history.
  const std::vector<std::string> names = FeatureNames(env.federation);
  TrainingSet history(names, {"time", "money"});
  {
    Rng rng(97);
    for (int i = 0; i < 40; ++i) {
      Vector x(names.size());
      for (double& v : x) v = rng.Uniform(0, 100);
      double time = 3.0, money = 0.2;
      for (size_t j = 0; j < x.size(); ++j) {
        time += (0.5 + 0.1 * j) * x[j];
        money += 0.01 * x[j];
      }
      history.Add(std::move(x), {time, money}).CheckOK();
    }
  }
  Dream dream;
  auto est = dream.EstimateCostValue(history);
  ASSERT_TRUE(est.ok());

  const Federation* federation = &env.federation;
  auto scalar_predictor =
      [federation, &est](const QueryPlan& plan) -> StatusOr<Vector> {
    MIDAS_ASSIGN_OR_RETURN(Vector features,
                           ExtractFeatures(*federation, plan));
    return est->Predict(features);
  };
  MultiObjectiveOptimizer::BatchCostPredictor batch_predictor =
      [&est](const Matrix& features, Matrix* costs) -> Status {
    MIDAS_ASSIGN_OR_RETURN(*costs, est->PredictBatch(features));
    return Status::OK();
  };

  MultiObjectiveOptimizer serial(&env.federation, &env.catalog);
  auto baseline = serial.Optimize(LogicalJoin(), scalar_predictor, policy);
  ASSERT_TRUE(baseline.ok());

  for (size_t shards : kThreadCounts) {
    for (size_t chunk : kChunkSizes) {
      MoqpOptions options;
      options.shards = shards;
      options.stream_chunk_size = chunk;
      MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                        options);
      const std::string label = "shards=" + std::to_string(shards) +
                                " chunk=" + std::to_string(chunk);
      auto result = optimizer.Optimize(LogicalJoin(), batch_predictor,
                                       policy);
      ASSERT_TRUE(result.ok()) << label;
      ExpectSameResult(*baseline, *result, label);
      // The per-plan pipeline at the same settings, too.
      auto per_plan = optimizer.Optimize(LogicalJoin(), scalar_predictor,
                                         policy);
      ASSERT_TRUE(per_plan.ok()) << label;
      ExpectSameResult(*baseline, *per_plan, label + " per-plan");
    }
  }
}

TEST(ParallelEquivalenceTest, BatchedPredictorErrorsSurface) {
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  MoqpOptions options;
  options.shards = 4;
  MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog, options);

  MultiObjectiveOptimizer::BatchCostPredictor failing =
      [](const Matrix&, Matrix*) -> Status {
    return Status::InvalidArgument("predictor offline");
  };
  auto failed = optimizer.Optimize(LogicalJoin(), failing, policy);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().message(), "predictor offline");

  // Wrong-sized batches are rejected rather than silently scattered.
  MultiObjectiveOptimizer::BatchCostPredictor short_batch =
      [](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows() / 2, 2, 1.0);
    return Status::OK();
  };
  EXPECT_FALSE(optimizer.Optimize(LogicalJoin(), short_batch, policy).ok());

  // Arity mismatches against the policy are rejected too.
  MultiObjectiveOptimizer::BatchCostPredictor one_metric =
      [](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows(), 1, 1.0);
    return Status::OK();
  };
  EXPECT_FALSE(optimizer.Optimize(LogicalJoin(), one_metric, policy).ok());
}

TEST(ParallelEquivalenceTest, ParallelFirstErrorMatchesSerial) {
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};

  // A predictor that fails on every call: serial and parallel must report
  // the same (first) error.
  auto failing = [](const QueryPlan&) -> StatusOr<Vector> {
    return Status::InvalidArgument("predictor offline");
  };
  Status serial_status, parallel_status;
  {
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog);
    serial_status = optimizer.Optimize(LogicalJoin(), failing, policy)
                        .status();
  }
  {
    MoqpOptions options;
    options.shards = 8;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    parallel_status = optimizer.Optimize(LogicalJoin(), failing, policy)
                          .status();
  }
  EXPECT_FALSE(serial_status.ok());
  EXPECT_FALSE(parallel_status.ok());
  EXPECT_EQ(serial_status.code(), parallel_status.code());
  EXPECT_EQ(serial_status.message(), parallel_status.message());
}

}  // namespace
}  // namespace midas

#include "midas/midas.h"

#include <cmath>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ires/features.h"
#include "midas/medical.h"
#include "query/enumerator.h"

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

// The reference Bootstrap: draws each run's plan from the whole
// EnumeratePhysical list with `rng`.
void EnumeratePhysicalBootstrap(MidasSystem* system, Rng* rng,
                                const std::string& scope,
                                const QueryPlan& logical, size_t runs) {
  PlanEnumerator enumerator(&system->federation(), &system->catalog(),
                            system->options().moqp.enumerator);
  const std::vector<QueryPlan> plans =
      enumerator.EnumeratePhysical(logical).ValueOrDie();
  for (size_t i = 0; i < runs; ++i) {
    ASSERT_TRUE(system->scheduler()
                    .ExecuteAndRecord(scope, plans[rng->Index(plans.size())])
                    .ok());
  }
}

TEST(MidasSystemTest, BootstrapMatchesEnumeratePhysicalPicks) {
  struct Case {
    bool three_clouds;
    int max_nodes;  // 0: the default VM counts {1, 2, 4, 8}
  };
  for (const Case& c : {Case{false, 0}, Case{true, 16}}) {
    SCOPED_TRACE(c.three_clouds ? "ThreeCloudFederation, VM counts 1-16"
                                : "PaperFederation");
    MidasOptions options;
    if (c.max_nodes > 0) {
      options.moqp.enumerator.node_counts.clear();
      for (int n = 1; n <= c.max_nodes; ++n) {
        options.moqp.enumerator.node_counts.push_back(n);
      }
    }
    auto make_system = [&] {
      Federation federation = c.three_clouds
                                  ? Federation::ThreeCloudFederation()
                                  : Federation::PaperFederation();
      PlaceMedicalTables(&federation).CheckOK();
      return std::make_unique<MidasSystem>(
          std::move(federation),
          MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie(), options);
    };
    std::unique_ptr<MidasSystem> system = make_system();
    std::unique_ptr<MidasSystem> reference = make_system();
    Rng rng(options.seed);  // the seed MidasSystem draws its picks with
    const QueryPlan query = MakeExample21Query().ValueOrDie();
    // "b" draws 120 runs: more than PaperFederation's 96 plans, so picks
    // repeat, and more than one 64-plan chunk.
    const std::vector<std::pair<std::string, size_t>> runs = {
        {"a", 12}, {"b", 120}, {"a", 7}};
    for (const auto& [scope, n] : runs) {
      ASSERT_TRUE(system->Bootstrap(scope, query, n).ok());
      EnumeratePhysicalBootstrap(reference.get(), &rng, scope, query, n);
    }
    for (const std::string scope : {"a", "b"}) {
      const TrainingSet* got =
          system->modelling().history().Get(scope).ValueOrDie();
      const TrainingSet* want =
          reference->modelling().history().Get(scope).ValueOrDie();
      ASSERT_EQ(got->size(), want->size()) << scope;
      for (size_t i = 0; i < got->size(); ++i) {
        EXPECT_EQ(got->at(i).timestamp, want->at(i).timestamp);
        EXPECT_EQ(got->at(i).features, want->at(i).features);
        EXPECT_EQ(got->at(i).costs, want->at(i).costs);
      }
    }
  }
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

TEST(MidasSystemTest, NanR2RequirementFailsAndRecordsNothing) {
  // A NaN R²_require has no stopping point: the DREAM fit must reject it
  // before any plan is costed, so nothing executes and nothing is recorded.
  MidasOptions options;
  options.estimator.dream.r2_require = std::numeric_limits<double>::quiet_NaN();
  MidasSystem system = MakeSystem(options);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("scope", query, policy);
  EXPECT_EQ(outcome.status().code(), StatusCode::kInvalidArgument)
      << outcome.status().ToString();
  EXPECT_EQ(system.modelling().history().SizeOf("scope"), 16u);
}

TEST(MidasSystemTest, HostileCardinalityInputsFailBeforeAnyCandidate) {
  // Each of these plans used to be served: a NaN scan fraction or join
  // override failed only when its measurement was recorded, a negative
  // join override failed in the simulator, and an override of 7.0 ran.
  // Each now fails resolving the plan space, so Bootstrap and RunQuery
  // execute and record nothing.
  struct Case {
    const char* what;
    void (*edit)(PlanNode* node);
  };
  const Case cases[] = {
      {"NaN scan_fraction",
       [](PlanNode* n) {
         if (n->kind == OperatorKind::kScan) n->scan_fraction = std::nan("");
       }},
      {"NaN join override",
       [](PlanNode* n) {
         if (n->kind == OperatorKind::kJoin) {
           n->join_selectivity_override = std::nan("");
         }
       }},
      {"negative join override",
       [](PlanNode* n) {
         if (n->kind == OperatorKind::kJoin) {
           n->join_selectivity_override = -0.5;
         }
       }},
      {"join override above 1",
       [](PlanNode* n) {
         if (n->kind == OperatorKind::kJoin) n->join_selectivity_override = 7.0;
       }},
      {"NaN filter override",
       [](PlanNode* n) {
         if (n->kind == OperatorKind::kJoin) {
           n->children[0] =
               MakeFilter(std::move(n->children[0]),
                          {{"PatientSex", CompareOp::kEq, std::nan("")}});
         }
       }},
  };
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  for (const Case& c : cases) {
    SCOPED_TRACE(c.what);
    MidasSystem system = MakeSystem();
    const QueryPlan query = MakeExample21Query().ValueOrDie();
    ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
    const int64_t clock = system.simulator().now();
    QueryPlan hostile = query;
    for (PlanNode* node : hostile.MutableNodes()) c.edit(node);
    EXPECT_EQ(system
                  .OptimizeQuery(system.modelling().Snapshot(),
                                 QueryRequest{"scope", hostile, policy})
                  .status()
                  .code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(system.Bootstrap("scope", hostile, 4).code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(system.RunQuery("scope", hostile, policy).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(system.simulator().now(), clock) << "a plan was executed";
    EXPECT_EQ(system.modelling().history().SizeOf("scope"), 16u);
  }
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

TEST(MidasSystemTest, ChosenPlanPredictionMatchesSnapshotPredict) {
  // OptimizeQuery's predicted costs are the pinned snapshot's prediction
  // for the chosen plan, in metric order, and carry the snapshot's epoch.
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("scope", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  const auto snapshot = system.modelling().Snapshot();
  auto outcome =
      system.OptimizeQuery(snapshot, QueryRequest{"scope", query, policy});
  ASSERT_TRUE(outcome.ok());
  EXPECT_EQ(outcome->moqp.snapshot_epoch, snapshot->epoch());
  const Vector features =
      ExtractFeatures(system.federation(), outcome->moqp.chosen_plan())
          .ValueOrDie();
  auto costs = system.modelling().Predict(*snapshot, "scope", features,
                                          system.options().estimator);
  ASSERT_TRUE(costs.ok());
  ASSERT_EQ(costs->size(), 2u);
  EXPECT_GE((*costs)[0], 0.0);
  EXPECT_GE((*costs)[1], 0.0);
  EXPECT_EQ(*costs, outcome->predicted);
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

// Randomized MOQP properties: seeded draws of federation (both paper
// federations), VM-count set, cost model, weights (a zero weight
// included) and constraints (infeasible ones included), each run through
// every MoqpAlgorithm x shards {1, 2, 4, 8} x stream_chunk_size {1, 7,
// default} x both predictor kinds. The exhaustive and WSM results must
// match an in-test EnumeratePhysical replay; NSGA must not depend on how
// the plan space is sharded, chunked or costed; the feature-row pipeline
// must cost one row per distinct feature row on Example 2.1 (aliased
// strata are copied, not scored), also under a max_plans cap that cuts an
// alias group, on scan-only plans whose compute site is a participating
// but unconstrained digit, and on a federation where nothing aliases; bad
// weights must fail before any predictor call; and a failing per-plan
// predictor must report the error a single serial stream reaches first.
// Kept small enough for the tsan preset.

#include <atomic>
#include <limits>
#include <string>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "ires/features.h"
#include "ires/moo_optimizer.h"
#include "midas/medical.h"
#include "optimizer/pareto.h"
#include "optimizer/wsm.h"
#include "support/moqp_testing.h"

namespace midas {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};
constexpr size_t kChunkSizes[] = {1, 7, 0};
constexpr MoqpAlgorithm kAlgorithms[] = {
    MoqpAlgorithm::kExhaustivePareto, MoqpAlgorithm::kWsm,
    MoqpAlgorithm::kNsga2, MoqpAlgorithm::kNsgaG};

struct Space {
  Federation federation;
  Catalog catalog;
  QueryPlan query;
};

Space MakeSpace(bool three_clouds) {
  Space space{three_clouds ? Federation::ThreeCloudFederation()
                           : Federation::PaperFederation(),
              MakeMedicalCatalog(0.05).ValueOrDie(),
              MakeExample21Query().ValueOrDie()};
  PlaceMedicalTables(&space.federation).CheckOK();
  return space;
}

// A random linear cost model over the feature row: time falls and money
// rises with VM counts (odd columns), both grow with data, so the front is
// a genuine trade-off. A pure function of the features.
struct CostModel {
  Vector time;
  Vector money;

  Vector operator()(const double* x, size_t n) const {
    double seconds = 500.0;
    double dollars = 1.0;
    for (size_t c = 0; c < n; ++c) {
      seconds += time[c] * x[c];
      dollars += money[c] * x[c];
    }
    return {seconds, dollars};
  }
};

CostModel RandomCostModel(size_t features, Rng* rng) {
  CostModel model;
  for (size_t c = 0; c < features; ++c) {
    const bool nodes = c % 2 == 1;
    model.time.push_back(nodes ? -rng->Uniform(1, 20) : rng->Uniform(0, 1));
    model.money.push_back(nodes ? rng->Uniform(0.01, 0.1)
                                : rng->Uniform(0, 1e-3));
  }
  return model;
}

MultiObjectiveOptimizer::BatchCostPredictor BatchPredictor(
    const CostModel& model) {
  return [model](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows(), 2);
    for (size_t r = 0; r < features.rows(); ++r) {
      costs->SetRow(r, model(features.RowData(r), features.cols()));
    }
    return Status::OK();
  };
}

MultiObjectiveOptimizer::CostPredictor PlanPredictor(
    const Federation* federation, const CostModel& model) {
  return [federation, model](const QueryPlan& plan) -> StatusOr<Vector> {
    MIDAS_ASSIGN_OR_RETURN(Vector x, ExtractFeatures(*federation, plan));
    return model(x.data(), x.size());
  };
}

std::vector<int> RandomNodeCounts(Rng* rng) {
  std::vector<int> counts;
  for (int n = 1; n <= 10; ++n) {
    if (rng->Uniform(0, 1) < 0.35) counts.push_back(n);
  }
  if (counts.empty()) counts.push_back(1 + static_cast<int>(rng->Index(10)));
  return counts;
}

std::vector<QueryPolicy> RandomPolicies(Rng* rng) {
  std::vector<QueryPolicy> policies(3);
  policies[0].weights = {0.0, 1.0};  // a zero weight
  const double w = rng->Uniform(0, 1);
  policies[1].weights = {w, 1.0 - w};
  policies[1].constraints = {rng->Uniform(100, 600)};  // time only
  policies[2].weights = {rng->Uniform(0, 1), rng->Uniform(0, 1)};
  policies[2].constraints = {1e-9, 1e-9};  // infeasible: best effort
  return policies;
}

// The EnumeratePhysical replay: every plan built and costed, then the
// distinct front (first representative per cost point) and Algorithm 2,
// or WsmSelect over the whole list.
struct Replay {
  std::vector<std::string> plans;
  std::vector<Vector> costs;
  std::vector<size_t> front;  // distinct, in enumeration order
  size_t distinct_rows = 0;   // distinct feature rows
};

Replay MakeReplay(const Space& space, const EnumeratorOptions& options,
                  const CostModel& model) {
  const PlanEnumerator enumerator(&space.federation, &space.catalog, options);
  Replay replay;
  std::unordered_set<Vector, VectorHash> rows;
  for (const QueryPlan& plan :
       enumerator.EnumeratePhysical(space.query).ValueOrDie()) {
    const Vector x = ExtractFeatures(space.federation, plan).ValueOrDie();
    replay.plans.push_back(plan.ToString());
    replay.costs.push_back(model(x.data(), x.size()));
    rows.insert(x);
  }
  replay.distinct_rows = rows.size();
  std::unordered_set<Vector, VectorHash> seen;
  for (size_t idx : ParetoFrontIndices(replay.costs, /*threads=*/1)) {
    if (seen.insert(replay.costs[idx]).second) replay.front.push_back(idx);
  }
  return replay;
}

void ExpectMatches(const MoqpResult& result,
                   const std::vector<size_t>& expected_rows, size_t chosen,
                   const Replay& replay, const std::string& label) {
  EXPECT_EQ(result.candidates_examined, replay.plans.size()) << label;
  ASSERT_EQ(result.pareto_costs.size(), expected_rows.size()) << label;
  ASSERT_EQ(result.pareto_plans.size(), expected_rows.size()) << label;
  for (size_t i = 0; i < expected_rows.size(); ++i) {
    EXPECT_EQ(result.pareto_costs[i], replay.costs[expected_rows[i]])
        << label << " member " << i;
    EXPECT_EQ(result.pareto_plans[i].ToString(), replay.plans[expected_rows[i]])
        << label << " member " << i;
  }
  EXPECT_EQ(result.chosen, chosen) << label;
}

MoqpOptions Options(MoqpAlgorithm algorithm,
                    const EnumeratorOptions& enumerator, size_t shards,
                    size_t chunk) {
  MoqpOptions options;
  options.algorithm = algorithm;
  options.enumerator = enumerator;
  options.shards = shards;
  options.stream_chunk_size = chunk;
  options.nsga2.population_size = 16;
  options.nsga2.generations = 6;
  options.nsga_g.population_size = 16;
  options.nsga_g.generations = 6;
  return options;
}

// Feature-row rows the pipeline must cost on a space: one per distinct
// feature row when every participating site hosts an operator (any plan
// with a non-scan operator), else between that and every candidate.
enum class Rows { kDistinct, kAtLeastDistinct, kAll };

// Every algorithm x shard count x chunk size x predictor kind on one
// space, under random policies: exhaustive and WSM results must match the
// replay, NSGA must agree with itself, and rows_costed must count what the
// predictor scored.
void ExpectEveryPipelineAgrees(const Space& space,
                               const EnumeratorOptions& enumerator,
                               Rows feature_rows, Rng* rng) {
  const CostModel model =
      RandomCostModel(FeatureNames(space.federation).size(), rng);
  const Replay replay = MakeReplay(space, enumerator, model);
  const auto batch = BatchPredictor(model);
  const auto per_plan = PlanPredictor(&space.federation, model);

  for (const QueryPolicy& policy : RandomPolicies(rng)) {
    std::vector<Vector> front_costs;
    for (size_t idx : replay.front) front_costs.push_back(replay.costs[idx]);
    const size_t exhaustive_choice =
        BestInPareto(front_costs, policy).ValueOrDie();
    const size_t wsm_choice =
        WsmSelect(replay.costs, policy.weights).ValueOrDie();

    for (MoqpAlgorithm algorithm : kAlgorithms) {
      MoqpResult nsga_reference;
      bool have_nsga_reference = false;
      for (size_t shards : kShardCounts) {
        for (size_t chunk : kChunkSizes) {
          const MultiObjectiveOptimizer optimizer(
              &space.federation, &space.catalog,
              Options(algorithm, enumerator, shards, chunk));
          for (bool batched : {true, false}) {
            const std::string label =
                MoqpAlgorithmName(algorithm) +
                " shards=" + std::to_string(shards) +
                " chunk=" + std::to_string(chunk) +
                (batched ? " feature-row" : " per-plan") +
                " w0=" + std::to_string(policy.weights[0]);
            auto result = batched
                              ? optimizer.Optimize(space.query, batch, policy)
                              : optimizer.Optimize(space.query, per_plan,
                                                   policy);
            ASSERT_TRUE(result.ok()) << label << result.status().ToString();
            EXPECT_EQ(result->candidates_examined, replay.plans.size())
                << label;
            if (!batched || feature_rows == Rows::kAll) {
              EXPECT_EQ(result->rows_costed, replay.plans.size()) << label;
            } else if (feature_rows == Rows::kDistinct) {
              EXPECT_EQ(result->rows_costed, replay.distinct_rows) << label;
            } else {
              EXPECT_GE(result->rows_costed, replay.distinct_rows) << label;
              EXPECT_LE(result->rows_costed, replay.plans.size()) << label;
            }
            switch (algorithm) {
              case MoqpAlgorithm::kExhaustivePareto:
                ExpectMatches(*result, replay.front, exhaustive_choice,
                              replay, label);
                break;
              case MoqpAlgorithm::kWsm:
                ExpectMatches(*result, {wsm_choice}, 0, replay, label);
                break;
              case MoqpAlgorithm::kNsga2:
              case MoqpAlgorithm::kNsgaG:
                if (!have_nsga_reference) {
                  nsga_reference = *result;
                  have_nsga_reference = true;
                } else {
                  ExpectSameResult(nsga_reference, *result, label);
                }
                break;
            }
          }
        }
      }
    }
  }
}

class MoqpPropertyTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MoqpPropertyTest, EveryAlgorithmShardChunkAndPredictorKindAgrees) {
  Rng rng(GetParam());
  const Space space = MakeSpace(GetParam() % 2 == 1);
  EnumeratorOptions enumerator;
  enumerator.node_counts = RandomNodeCounts(&rng);
  ExpectEveryPipelineAgrees(space, enumerator, Rows::kDistinct, &rng);
}

TEST_P(MoqpPropertyTest, ScanOnlySpacesAgree) {
  // A scan-only plan: a compute site other than the data site takes part
  // in the pick but hosts no operator, so its VM count is invisible to the
  // feature row and several candidates of one stratum share a row.
  Rng rng(GetParam());
  Space space = MakeSpace(GetParam() % 2 == 1);
  space.query = QueryPlan(MakeScan("GeneralInfo"));
  EnumeratorOptions enumerator;
  enumerator.node_counts = RandomNodeCounts(&rng);
  ExpectEveryPipelineAgrees(space, enumerator, Rows::kAtLeastDistinct, &rng);
}

TEST_P(MoqpPropertyTest, MaxPlansCapInsideAnAliasGroupAgrees) {
  Rng rng(GetParam());
  const Space space = MakeSpace(GetParam() % 2 == 1);
  EnumeratorOptions enumerator;
  enumerator.node_counts = RandomNodeCounts(&rng);
  // Cap halfway through the last alias stratum of the keyed space.
  const auto keyed =
      PlanEnumerator(&space.federation, &space.catalog, enumerator)
          .Resolve(space.query,
                   [&space](const QueryPlan& plan_template) {
                     return ExtractFeatures(space.federation, plan_template);
                   })
          .ValueOrDie();
  const PlanSpace::Stratum* cut = nullptr;
  for (const PlanSpace::Stratum& stratum : keyed->strata()) {
    if (stratum.aliased()) cut = &stratum;
  }
  ASSERT_NE(cut, nullptr);
  enumerator.max_plans = cut->seq_base + (cut->feasible + 1) / 2;
  ExpectEveryPipelineAgrees(space, enumerator, Rows::kDistinct, &rng);
}

TEST_P(MoqpPropertyTest, FederationWithoutAliasesAgrees) {
  // Three single-engine sites and an aggregate over one table: computing
  // at A, B or C puts operators on {A}, {A, B} or {A, C}, so every
  // template's feature row differs and nothing is aliased.
  Rng rng(GetParam());
  Space space{Federation(), MakeMedicalCatalog(0.05).ValueOrDie(),
              QueryPlan(MakeAggregate(MakeScan("GeneralInfo"), 20))};
  const EngineKind engines[] = {EngineKind::kHive, EngineKind::kPostgres,
                                EngineKind::kSpark};
  for (int i = 0; i < 3; ++i) {
    SiteConfig site;
    site.name = std::string("site-") + static_cast<char>('A' + i);
    site.engines = {engines[i]};
    site.node_type = {ProviderKind::kAmazon, "m4.large", 2, 8.0, 0.0,
                      0.02 * (i + 1)};
    site.max_nodes = i == 0 ? 10 : i == 1 ? 6 : 16;
    space.federation.AddSite(site).ValueOrDie();
  }
  space.federation.PlaceTable("GeneralInfo", 0, EngineKind::kHive).CheckOK();
  EnumeratorOptions enumerator;
  enumerator.node_counts = RandomNodeCounts(&rng);
  ExpectEveryPipelineAgrees(space, enumerator, Rows::kAll, &rng);
}

TEST_P(MoqpPropertyTest, BadWeightsFailBeforeAnyPredictorCall) {
  Rng rng(GetParam());
  const Space space = MakeSpace(GetParam() % 2 == 1);
  EnumeratorOptions enumerator;
  enumerator.node_counts = RandomNodeCounts(&rng);
  std::atomic<size_t> calls{0};
  const MultiObjectiveOptimizer::BatchCostPredictor batch =
      [&calls](const Matrix& features, Matrix* costs) -> Status {
    calls.fetch_add(1);
    *costs = Matrix(features.rows(), 2, 1.0);
    return Status::OK();
  };
  const auto per_plan = [&calls](const QueryPlan&) -> StatusOr<Vector> {
    calls.fetch_add(1);
    return Vector{1.0, 1.0};
  };
  std::vector<QueryPolicy> bad(2);
  bad[0].weights = {0.0, 0.0};
  bad[1].weights = {rng.Uniform(0, 1),
                    std::numeric_limits<double>::quiet_NaN()};
  for (MoqpAlgorithm algorithm : kAlgorithms) {
    for (size_t shards : kShardCounts) {
      const MultiObjectiveOptimizer optimizer(
          &space.federation, &space.catalog,
          Options(algorithm, enumerator, shards, 7));
      for (const QueryPolicy& policy : bad) {
        EXPECT_EQ(optimizer.Optimize(space.query, batch, policy)
                      .status()
                      .code(),
                  StatusCode::kInvalidArgument);
        EXPECT_EQ(optimizer.Optimize(space.query, per_plan, policy)
                      .status()
                      .code(),
                  StatusCode::kInvalidArgument);
      }
    }
  }
  EXPECT_EQ(calls.load(), 0u);
}

TEST_P(MoqpPropertyTest, FailingPerPlanPredictorReportsSerialFirstError) {
  // The predictor fails on the first candidate of shard 2 and the last
  // candidate of shard 3 (of a 4-way partition). Whatever the sharding,
  // the call must fail with the error of the lower sequence number — the
  // one a single serial stream reaches first.
  Rng rng(GetParam());
  const Space space = MakeSpace(GetParam() % 2 == 1);
  // VM counts 1 and 2 fit every site, so each (variant, compute) pair
  // gives at least two non-empty strata: enough for four shards.
  std::vector<int> counts = {1, 2};
  for (int n : RandomNodeCounts(&rng)) {
    if (n > 2) counts.push_back(n);
  }
  EnumeratorOptions enumerator_options;
  enumerator_options.node_counts = counts;
  const PlanEnumerator enumerator(&space.federation, &space.catalog,
                                  enumerator_options);
  const std::shared_ptr<const PlanSpace> plan_space =
      enumerator.Resolve(space.query).ValueOrDie();
  const std::vector<EnumerationShard> partition =
      plan_space->PartitionShards(4).ValueOrDie();
  ASSERT_FALSE(partition[2].strata().empty());
  ASSERT_FALSE(partition[3].strata().empty());
  const EnumerationShard::Stratum& last = partition[3].strata().back();
  const uint64_t fail_a = partition[2].strata().front().seq_base;
  const uint64_t fail_b = last.seq_base + last.feasible - 1;
  const std::vector<QueryPlan> failing =
      plan_space->Materialize({fail_a, fail_b}).ValueOrDie();
  const std::string plan_a = failing[0].ToString();
  const std::string plan_b = failing[1].ToString();
  const auto predictor = [&](const QueryPlan& plan) -> StatusOr<Vector> {
    const std::string text = plan.ToString();
    if (text == plan_a) return Status::Internal("failed at shard 2");
    if (text == plan_b) return Status::Internal("failed at shard 3");
    return Vector{1.0, 1.0};
  };
  const std::string expected =
      fail_a < fail_b ? "failed at shard 2" : "failed at shard 3";
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  for (MoqpAlgorithm algorithm : kAlgorithms) {
    for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
      for (size_t chunk : kChunkSizes) {
        const MultiObjectiveOptimizer optimizer(
            &space.federation, &space.catalog,
            Options(algorithm, enumerator_options, shards, chunk));
        const Status status =
            optimizer.Optimize(space.query, predictor, policy).status();
        EXPECT_EQ(status.code(), StatusCode::kInternal);
        EXPECT_EQ(status.message(), expected)
            << MoqpAlgorithmName(algorithm) << " shards=" << shards
            << " chunk=" << chunk;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MoqpPropertyTest,
                         ::testing::Values(2019u, 2020u, 7211u, 7212u));

}  // namespace
}  // namespace midas

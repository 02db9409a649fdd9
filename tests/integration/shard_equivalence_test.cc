// Sharded == serial equivalence: the sharded candidate-stream pipeline
// (partitioned enumeration -> per-shard costing and Pareto folding or
// cost tabulation -> tree merge -> sequence restore) must be bit-identical
// to the single stream at every shard count and chunk size, for every
// algorithm — plus a ThreadSanitizer-visible stress that builds and merges
// shard archives concurrently.

#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "common/thread_pool.h"
#include "ires/moo_optimizer.h"
#include "optimizer/pareto_archive.h"
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
  a.engines = {EngineKind::kHive, EngineKind::kSpark};
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

// Pure function of the feature rows with alternating-sign weights, so the
// front is a genuine time/money trade-off; thread-safe.
MultiObjectiveOptimizer::BatchCostPredictor LinearPredictor() {
  return [](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows(), 2, 0.0);
    for (size_t r = 0; r < features.rows(); ++r) {
      double time = 3.0;
      double money = 0.2;
      for (size_t c = 0; c < features.cols(); ++c) {
        const double sign = c % 2 == 0 ? 1.0 : -1.0;
        time += (0.5 + 0.1 * static_cast<double>(c)) * features(r, c);
        money += sign * 0.01 * features(r, c);
      }
      (*costs)(r, 0) = time;
      (*costs)(r, 1) = money;
    }
    return Status::OK();
  };
}

TEST(ShardEquivalenceTest, ShardedStreamingMatchesSerialStreaming) {
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  const auto predictor = LinearPredictor();

  MultiObjectiveOptimizer serial(&env.federation, &env.catalog);
  auto baseline = serial.Optimize(LogicalJoin(), predictor, policy);
  ASSERT_TRUE(baseline.ok());
  EXPECT_TRUE(baseline->shard_stats.empty());

  for (size_t shards : {size_t{2}, size_t{3}, size_t{8}}) {
    for (size_t chunk : {size_t{1}, size_t{7}, size_t{1024}}) {
      MoqpOptions options;
      options.shards = shards;
      options.stream_chunk_size = chunk;
      MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                        options);
      const std::string label = "shards=" + std::to_string(shards) +
                                " chunk=" + std::to_string(chunk);
      // Repeated runs must agree too: scheduling order never reaches the
      // result.
      for (int rep = 0; rep < 2; ++rep) {
        auto result = optimizer.Optimize(LogicalJoin(), predictor, policy);
        ASSERT_TRUE(result.ok()) << label;
        ExpectSameResult(*baseline, *result, label);

        // Per-shard stats: one row per shard, costed rows sum to the
        // total, peaks sum to the aggregate, and the fronts cannot be
        // larger than the shard's own row slice.
        ASSERT_EQ(result->shard_stats.size(), shards) << label;
        uint64_t costed = 0;
        size_t peak = 0;
        for (size_t s = 0; s < result->shard_stats.size(); ++s) {
          const MoqpShardStats& stats = result->shard_stats[s];
          EXPECT_EQ(stats.shard, s) << label;
          costed += stats.rows_costed;
          peak += stats.peak_resident_candidates;
          EXPECT_LE(stats.front_size, stats.rows_costed) << label;
        }
        EXPECT_EQ(costed, result->rows_costed) << label;
        EXPECT_EQ(result->rows_costed, baseline->rows_costed) << label;
        EXPECT_EQ(peak, result->peak_resident_candidates) << label;
      }
    }
  }
}

TEST(ShardEquivalenceTest, DefaultShardCountAndCapBehaveLikeSerial) {
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  const auto predictor = LinearPredictor();

  // shards = 0 resolves to the process default; with a max_plans cap the
  // sharded union must still be exactly the first capped serial plans.
  for (size_t max_plans : {size_t{20000}, size_t{37}}) {
    MoqpOptions serial_options;
    serial_options.enumerator.max_plans = max_plans;
    MultiObjectiveOptimizer serial(&env.federation, &env.catalog,
                                   serial_options);
    auto baseline = serial.Optimize(LogicalJoin(), predictor, policy);
    ASSERT_TRUE(baseline.ok());

    MoqpOptions options;
    options.enumerator.max_plans = max_plans;
    options.shards = 0;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog, options);
    auto result = optimizer.Optimize(LogicalJoin(), predictor, policy);
    const std::string label = "max_plans=" + std::to_string(max_plans);
    ASSERT_TRUE(result.ok()) << label;
    ExpectSameResult(*baseline, *result, label);
  }
}

TEST(ShardEquivalenceTest, WsmAndNsgaIdenticalAtEveryShardCount) {
  // kWsm and the NSGA variants select over the whole sequence-indexed cost
  // table, which every shard count fills identically.
  Environment env = MakeEnvironment();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  const auto predictor = LinearPredictor();

  for (MoqpAlgorithm algorithm :
       {MoqpAlgorithm::kWsm, MoqpAlgorithm::kNsga2, MoqpAlgorithm::kNsgaG}) {
    MoqpOptions serial_options;
    serial_options.algorithm = algorithm;
    serial_options.nsga2.population_size = 20;
    serial_options.nsga2.generations = 10;
    serial_options.nsga_g.population_size = 20;
    serial_options.nsga_g.generations = 10;
    MultiObjectiveOptimizer serial(&env.federation, &env.catalog,
                                   serial_options);
    auto baseline = serial.Optimize(LogicalJoin(), predictor, policy);
    ASSERT_TRUE(baseline.ok()) << MoqpAlgorithmName(algorithm);
    // The table holds every candidate.
    EXPECT_EQ(baseline->peak_resident_candidates,
              baseline->candidates_examined);

    for (size_t shards : {size_t{2}, size_t{3}, size_t{8}}) {
      MoqpOptions options = serial_options;
      options.shards = shards;
      options.stream_chunk_size = 7;
      MultiObjectiveOptimizer sharded(&env.federation, &env.catalog,
                                      options);
      auto result = sharded.Optimize(LogicalJoin(), predictor, policy);
      const std::string label =
          MoqpAlgorithmName(algorithm) + " shards=" + std::to_string(shards);
      ASSERT_TRUE(result.ok()) << label;
      ExpectSameResult(*baseline, *result, label);
      EXPECT_EQ(result->peak_resident_candidates,
                result->candidates_examined)
          << label;
      EXPECT_EQ(result->shard_stats.size(), shards) << label;
    }
  }
}

// ThreadSanitizer stress for the merge machinery itself: shard archives
// are built concurrently (one worker per shard), then merged in parallel
// pairwise rounds — disjoint pairs run on different workers, exactly the
// access pattern a parallel merge coordinator would use. The final front
// must equal the single-pass reference regardless of the interleaving.
TEST(ShardEquivalenceTest, ConcurrentShardBuildAndMergeStress) {
  Rng rng(20260807);
  constexpr size_t kStream = 6000;
  constexpr size_t kShards = 8;
  std::vector<Vector> costs(kStream, Vector(3));
  for (Vector& c : costs) {
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 12));
  }

  // Reference: single-pass archive over the whole stream.
  ParetoArchive reference;
  std::vector<size_t> evicted;
  for (size_t i = 0; i < kStream; ++i) reference.Insert(costs[i], &evicted);

  for (int rep = 0; rep < 3; ++rep) {
    std::vector<ParetoArchive> shards(kShards);
    ParallelForOptions parallel;
    parallel.threads = kShards;
    ASSERT_TRUE(ParallelFor(
                    kShards,
                    [&](size_t s) -> Status {
                      std::vector<size_t> shard_evicted;
                      for (size_t i = s; i < kStream; i += kShards) {
                        shards[s].InsertSequenced(costs[i], i, &shard_evicted);
                      }
                      return Status::OK();
                    },
                    parallel)
                    .ok());
    // Parallel pairwise merge rounds: round k merges shard i+half into
    // shard i for disjoint i, so no archive is touched by two workers.
    size_t count = kShards;
    while (count > 1) {
      const size_t half = (count + 1) / 2;
      const size_t pairs = count - half;
      ASSERT_TRUE(ParallelFor(
                      pairs,
                      [&](size_t i) -> Status {
                        shards[i].MergeFrom(std::move(shards[i + half]));
                        return Status::OK();
                      },
                      parallel)
                      .ok());
      count = half;
    }
    shards.front().SortBySequence();
    EXPECT_EQ(shards.front().costs(), reference.costs()) << "rep=" << rep;
    EXPECT_EQ(shards.front().seqs(), reference.seqs()) << "rep=" << rep;
  }
}

}  // namespace
}  // namespace midas

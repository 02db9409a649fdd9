#include "query/enumerator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

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
  a.node_type = {ProviderKind::kAmazon, "a1.large", 2, 4.0, 0.0, 0.0098};
  a.max_nodes = 8;
  env.site_a = env.federation.AddSite(a).ValueOrDie();
  SiteConfig b;
  b.name = "B";
  b.engines = {EngineKind::kPostgres};
  b.node_type = {ProviderKind::kMicrosoft, "B2S", 2, 4.0, 8.0, 0.042};
  b.max_nodes = 8;
  env.site_b = env.federation.AddSite(b).ValueOrDie();

  TableDef t1;
  t1.name = "t1";
  t1.row_count = 1000;
  t1.columns = {{"id", ColumnType::kInt, 8.0, 1000}};
  env.catalog.AddTable(t1).CheckOK();
  TableDef t2;
  t2.name = "t2";
  t2.row_count = 500;
  t2.columns = {{"id", ColumnType::kInt, 8.0, 500}};
  env.catalog.AddTable(t2).CheckOK();

  env.federation.PlaceTable("t1", env.site_a, EngineKind::kHive).CheckOK();
  env.federation.PlaceTable("t2", env.site_b, EngineKind::kPostgres)
      .CheckOK();
  return env;
}

QueryPlan JoinPlan() {
  return QueryPlan(MakeJoin(MakeScan("t1"), MakeScan("t2"), "id", "id"));
}

TEST(EnumeratorTest, ProducesAnnotatedPlans) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  ASSERT_FALSE(plans->empty());
  for (const QueryPlan& plan : *plans) {
    for (const PlanNode* node : plan.Nodes()) {
      EXPECT_TRUE(node->site.has_value());
      EXPECT_TRUE(node->engine.has_value());
      EXPECT_GT(node->num_nodes, 0);
      EXPECT_GT(node->output_rows, 0.0);  // cardinalities estimated
    }
  }
}

TEST(EnumeratorTest, ScansPinnedToPlacement) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  for (const QueryPlan& plan : *plans) {
    for (const PlanNode* node : plan.Nodes()) {
      if (node->kind != OperatorKind::kScan) continue;
      if (node->table == "t1") {
        EXPECT_EQ(*node->site, env.site_a);
        EXPECT_EQ(*node->engine, EngineKind::kHive);
      } else {
        EXPECT_EQ(*node->site, env.site_b);
        EXPECT_EQ(*node->engine, EngineKind::kPostgres);
      }
    }
  }
}

TEST(EnumeratorTest, CoversBothComputeEngines) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  std::set<EngineKind> join_engines;
  for (const QueryPlan& plan : *plans) {
    join_engines.insert(*plan.root()->engine);
  }
  EXPECT_EQ(join_engines.size(), 2u);
}

TEST(EnumeratorTest, CoversAllNodeCounts) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {1, 2, 4};
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  std::set<int> counts;
  for (const QueryPlan& plan : *plans) {
    counts.insert(plan.root()->num_nodes);
  }
  EXPECT_EQ(counts, (std::set<int>{1, 2, 4}));
}

TEST(EnumeratorTest, JoinOrderVariantsDoubleThePlans) {
  Environment env = MakeEnvironment();
  EnumeratorOptions with;
  with.enumerate_join_orders = true;
  EnumeratorOptions without;
  without.enumerate_join_orders = false;
  auto with_plans = PlanEnumerator(&env.federation, &env.catalog, with)
                        .EnumeratePhysical(JoinPlan());
  auto without_plans = PlanEnumerator(&env.federation, &env.catalog, without)
                           .EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(with_plans.ok());
  ASSERT_TRUE(without_plans.ok());
  EXPECT_EQ(with_plans->size(), 2 * without_plans->size());
}

TEST(EnumeratorTest, RespectsMaxPlansCap) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.max_plans = 5;
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  EXPECT_EQ(plans->size(), 5u);
}

TEST(EnumeratorTest, RespectsSiteElasticityLimit) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {1, 16};  // 16 exceeds both sites' max of 8
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  auto plans = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(plans.ok());
  for (const QueryPlan& plan : *plans) {
    for (const PlanNode* node : plan.Nodes()) {
      EXPECT_LE(node->num_nodes, 8);
    }
  }
}

TEST(EnumeratorTest, UnplacedTableFails) {
  Environment env = MakeEnvironment();
  TableDef t3;
  t3.name = "t3";
  t3.row_count = 10;
  t3.columns = {{"id", ColumnType::kInt, 8.0, 10}};
  env.catalog.AddTable(t3).CheckOK();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  EXPECT_FALSE(
      enumerator.EnumeratePhysical(QueryPlan(MakeScan("t3"))).ok());
}

TEST(EnumeratorTest, EmptyNodeCountsRejected) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {};
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  EXPECT_FALSE(enumerator.EnumeratePhysical(JoinPlan()).ok());
}

std::vector<std::string> PlanStrings(const std::vector<QueryPlan>& plans) {
  std::vector<std::string> out;
  out.reserve(plans.size());
  for (const QueryPlan& plan : plans) out.push_back(plan.ToString());
  return out;
}

// The whole plan space as one shard: the serial candidate stream.
EnumerationShard SerialShard(const PlanEnumerator& enumerator) {
  return enumerator.PartitionShards(JoinPlan(), 1).ValueOrDie().front();
}

// Candidate i of a chunk as the plan its closed form describes: the
// template with every operator's VM count taken from the pick. Built
// independently of PlanEnumerator::Materialize.
std::string CandidateString(const CandidateChunk& chunk, size_t i) {
  QueryPlan plan = *chunk.templates[chunk.template_of[i]];
  for (PlanNode* node : plan.MutableNodes()) {
    node->num_nodes = chunk.nodes(i)[*node->site];
  }
  return plan.ToString();
}

TEST(EnumeratorTest, ChunkedMatchesMaterializedAtAnyChunkSize) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto all = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(all.ok());
  const std::vector<std::string> want = PlanStrings(*all);
  ASSERT_FALSE(want.empty());

  for (size_t chunk_size :
       {size_t{1}, size_t{3}, size_t{64}, size_t{1000000}}) {
    std::vector<std::string> got;
    size_t chunks = 0;
    auto status = enumerator.StreamCandidates(
        JoinPlan(), SerialShard(enumerator), chunk_size,
        [&](const CandidateChunk& chunk) -> Status {
          EXPECT_GT(chunk.size(), 0u);
          EXPECT_LE(chunk.size(), chunk_size);
          EXPECT_EQ(chunk.num_sites, env.federation.num_sites());
          EXPECT_EQ(chunk.template_of.size(), chunk.size());
          EXPECT_EQ(chunk.site_nodes.size(),
                    chunk.size() * chunk.num_sites);
          ++chunks;
          for (size_t i = 0; i < chunk.size(); ++i) {
            EXPECT_EQ(chunk.seqs[i], got.size());  // serial order
            got.push_back(CandidateString(chunk, i));
          }
          return Status::OK();
        });
    ASSERT_TRUE(status.ok()) << "chunk_size=" << chunk_size;
    EXPECT_EQ(got, want) << "chunk_size=" << chunk_size;
    EXPECT_EQ(chunks, (want.size() + chunk_size - 1) / chunk_size)
        << "chunk_size=" << chunk_size;
  }
}

TEST(EnumeratorTest, ChunkedVisitorErrorAbortsEnumeration) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  size_t calls = 0;
  auto status = enumerator.StreamCandidates(
      JoinPlan(), SerialShard(enumerator), 4,
      [&](const CandidateChunk&) -> Status {
        ++calls;
        return Status::Internal("stop here");
      });
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.message(), "stop here");
  EXPECT_EQ(calls, 1u);
}

TEST(EnumeratorTest, ChunkedRespectsMaxPlansCap) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.max_plans = 5;
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  size_t total = 0;
  ASSERT_TRUE(enumerator
                  .StreamCandidates(JoinPlan(), SerialShard(enumerator), 2,
                                    [&](const CandidateChunk& chunk) {
                                      total += chunk.size();
                                      return Status::OK();
                                    })
                  .ok());
  EXPECT_EQ(total, 5u);
}

TEST(EnumeratorTest, ChunkedRejectsBadArguments) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto noop = [](const CandidateChunk&) { return Status::OK(); };
  const EnumerationShard all = SerialShard(enumerator);
  EXPECT_FALSE(enumerator.StreamCandidates(JoinPlan(), all, 0, noop).ok());
  EXPECT_FALSE(enumerator
                   .StreamCandidates(JoinPlan(), all, 4,
                                     PlanEnumerator::CandidateVisitor())
                   .ok());
}

TEST(EnumeratorTest, ChunkedReportsNoFeasiblePlan) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {16};  // exceeds both sites' max of 8
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  // The serial stream starts from the one-shard partition, which reports
  // the infeasible space before any candidate exists.
  auto shards = enumerator.PartitionShards(JoinPlan(), 1);
  EXPECT_EQ(shards.status().code(), StatusCode::kFailedPrecondition);
}

TEST(EnumeratorTest, NonPositiveNodeCountsRejectedBeforeAnyCandidate) {
  Environment env = MakeEnvironment();
  for (std::vector<int> counts :
       {std::vector<int>{1, 0}, std::vector<int>{2, -1}}) {
    EnumeratorOptions options;
    options.node_counts = counts;
    PlanEnumerator enumerator(&env.federation, &env.catalog, options);
    // A one-candidate shard whose candidate uses only the valid count:
    // the bad count must still fail before that candidate is streamed.
    EnumerationShard first;
    first.strata.push_back({0, 0, 1});
    first.planned_emissions = 1;
    size_t calls = 0;
    const Status status = enumerator.StreamCandidates(
        JoinPlan(), first, 1, [&](const CandidateChunk&) {
          ++calls;
          return Status::OK();
        });
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument)
        << status.ToString();
    EXPECT_EQ(calls, 0u);
    EXPECT_EQ(enumerator.EnumeratePhysical(JoinPlan()).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(enumerator.PartitionShards(JoinPlan(), 2).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(enumerator.Materialize(JoinPlan(), {0}).status().code(),
              StatusCode::kInvalidArgument);
  }
}

TEST(EnumeratorTest, MaterializeRebuildsEnumeratedPlansAtSequenceNumbers) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {1, 2, 4, 16};  // 16 exceeds both sites' max of 8
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  auto all = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(all.ok());
  const uint64_t n = all->size();
  // Out of order, with a repeat, first and last included.
  const std::vector<uint64_t> seqs = {n - 1, 3, 0, 7, 3, n / 2};
  auto rebuilt = enumerator.Materialize(JoinPlan(), seqs);
  ASSERT_TRUE(rebuilt.ok()) << rebuilt.status().ToString();
  ASSERT_EQ(rebuilt->size(), seqs.size());
  for (size_t i = 0; i < seqs.size(); ++i) {
    const QueryPlan& want = (*all)[seqs[i]];
    EXPECT_EQ((*rebuilt)[i].ToString(), want.ToString()) << "seq " << seqs[i];
    const std::vector<const PlanNode*> got_nodes = (*rebuilt)[i].Nodes();
    const std::vector<const PlanNode*> want_nodes = want.Nodes();
    ASSERT_EQ(got_nodes.size(), want_nodes.size());
    for (size_t k = 0; k < got_nodes.size(); ++k) {
      EXPECT_EQ(got_nodes[k]->site, want_nodes[k]->site);
      EXPECT_EQ(got_nodes[k]->engine, want_nodes[k]->engine);
      EXPECT_EQ(got_nodes[k]->num_nodes, want_nodes[k]->num_nodes);
      EXPECT_EQ(got_nodes[k]->output_rows, want_nodes[k]->output_rows);
      EXPECT_EQ(got_nodes[k]->output_bytes, want_nodes[k]->output_bytes);
    }
  }
  EXPECT_TRUE(enumerator.Materialize(JoinPlan(), {})->empty());
  EXPECT_EQ(enumerator.Materialize(JoinPlan(), {n}).status().code(),
            StatusCode::kOutOfRange);
}

// Runs every shard and returns candidate plan strings indexed by global
// sequence number, verifying chunk/seq alignment along the way.
std::vector<std::string> CollectSharded(
    const PlanEnumerator& enumerator, const QueryPlan& logical,
    const std::vector<EnumerationShard>& shards, size_t total,
    size_t chunk_size) {
  std::vector<std::string> by_seq(total);
  std::vector<char> seen(total, 0);
  for (const EnumerationShard& shard : shards) {
    uint64_t emitted = 0;
    auto status = enumerator.StreamCandidates(
        logical, shard, chunk_size,
        [&](const CandidateChunk& chunk) -> Status {
          EXPECT_GT(chunk.size(), 0u);
          EXPECT_LE(chunk.size(), chunk_size);
          for (size_t i = 0; i < chunk.size(); ++i) {
            EXPECT_LT(chunk.seqs[i], total);
            if (chunk.seqs[i] >= total) continue;
            EXPECT_EQ(seen[chunk.seqs[i]], 0)
                << "duplicate seq " << chunk.seqs[i];
            seen[chunk.seqs[i]] = 1;
            by_seq[chunk.seqs[i]] = CandidateString(chunk, i);
          }
          emitted += chunk.size();
          return Status::OK();
        });
    EXPECT_TRUE(status.ok());
    EXPECT_EQ(emitted, shard.planned_emissions);
  }
  for (char s : seen) EXPECT_EQ(s, 1);  // shards cover the space exactly
  return by_seq;
}

TEST(EnumeratorTest, ShardsReassembleSerialEnumerationExactly) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto all = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(all.ok());
  const std::vector<std::string> want = PlanStrings(*all);
  ASSERT_FALSE(want.empty());

  for (size_t num_shards : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
    auto shards = enumerator.PartitionShards(JoinPlan(), num_shards);
    ASSERT_TRUE(shards.ok()) << "shards=" << num_shards;
    ASSERT_EQ(shards->size(), num_shards);
    uint64_t planned = 0;
    for (const EnumerationShard& shard : *shards) {
      planned += shard.planned_emissions;
      // Strata ascend by index and planned_emissions is their sum.
      uint64_t from_strata = 0;
      for (size_t i = 0; i < shard.strata.size(); ++i) {
        from_strata += shard.strata[i].feasible;
        if (i > 0) {
          EXPECT_LT(shard.strata[i - 1].index, shard.strata[i].index);
        }
      }
      EXPECT_EQ(from_strata, shard.planned_emissions);
    }
    EXPECT_EQ(planned, want.size()) << "shards=" << num_shards;
    const std::vector<std::string> got = CollectSharded(
        enumerator, JoinPlan(), *shards, want.size(), /*chunk_size=*/3);
    EXPECT_EQ(got, want) << "shards=" << num_shards;
  }
}

TEST(EnumeratorTest, ShardsRespectMaxPlansCap) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.max_plans = 5;
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  auto capped = enumerator.EnumeratePhysical(JoinPlan());
  ASSERT_TRUE(capped.ok());
  ASSERT_EQ(capped->size(), 5u);

  auto shards = enumerator.PartitionShards(JoinPlan(), 3);
  ASSERT_TRUE(shards.ok());
  uint64_t planned = 0;
  for (const EnumerationShard& shard : *shards) {
    planned += shard.planned_emissions;
  }
  EXPECT_EQ(planned, 5u);
  // The union of the shards is exactly the first max_plans serial plans.
  const std::vector<std::string> got =
      CollectSharded(enumerator, JoinPlan(), *shards, 5, /*chunk_size=*/2);
  EXPECT_EQ(got, PlanStrings(*capped));
}

TEST(EnumeratorTest, PartitionShardsBalancesAndIsDeterministic) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto first = enumerator.PartitionShards(JoinPlan(), 4);
  auto second = enumerator.PartitionShards(JoinPlan(), 4);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t s = 0; s < first->size(); ++s) {
    EXPECT_EQ((*first)[s].planned_emissions, (*second)[s].planned_emissions);
    ASSERT_EQ((*first)[s].strata.size(), (*second)[s].strata.size());
    for (size_t i = 0; i < (*first)[s].strata.size(); ++i) {
      EXPECT_EQ((*first)[s].strata[i].index, (*second)[s].strata[i].index);
      EXPECT_EQ((*first)[s].strata[i].seq_base,
                (*second)[s].strata[i].seq_base);
    }
  }
  // No shard should carry everything when there are enough strata.
  uint64_t total = 0;
  uint64_t largest = 0;
  for (const EnumerationShard& shard : *first) {
    total += shard.planned_emissions;
    largest = std::max(largest, shard.planned_emissions);
  }
  EXPECT_LT(largest, total);
}

TEST(EnumeratorTest, PartitionShardsErrors) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  EXPECT_FALSE(enumerator.PartitionShards(JoinPlan(), 0).ok());

  EnumeratorOptions infeasible;
  infeasible.node_counts = {16};  // exceeds both sites' max of 8
  PlanEnumerator bad(&env.federation, &env.catalog, infeasible);
  auto shards = bad.PartitionShards(JoinPlan(), 2);
  EXPECT_FALSE(shards.ok());  // same "no feasible physical plan" as serial
}

TEST(EnumeratorTest, ShardChunkedRejectsBadArguments) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto shards = enumerator.PartitionShards(JoinPlan(), 2);
  ASSERT_TRUE(shards.ok());
  auto noop = [](const CandidateChunk&) { return Status::OK(); };
  EXPECT_FALSE(
      enumerator.StreamCandidates(JoinPlan(), (*shards)[0], 0, noop).ok());
  EXPECT_FALSE(enumerator
                   .StreamCandidates(JoinPlan(), (*shards)[0], 4,
                                     PlanEnumerator::CandidateVisitor())
                   .ok());
  // An empty shard is fine: no chunks, no error.
  EnumerationShard empty;
  size_t calls = 0;
  EXPECT_TRUE(enumerator
                  .StreamCandidates(JoinPlan(), empty, 4,
                                    [&](const CandidateChunk&) {
                                      ++calls;
                                      return Status::OK();
                                    })
                  .ok());
  EXPECT_EQ(calls, 0u);
}

TEST(EnumeratorTest, Example31ResourceConfigurations) {
  // 70 vCPU x 260 GiB = 18,200 equivalent configurations.
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(70, 260), 18200u);
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(0, 10), 0u);
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(-1, 10), 0u);
}

}  // namespace
}  // namespace midas

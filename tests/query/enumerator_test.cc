#include "query/enumerator.h"

#include <algorithm>
#include <cstdint>
#include <set>
#include <string>
#include <type_traits>
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

std::shared_ptr<const PlanSpace> Space(const PlanEnumerator& enumerator,
                                       const QueryPlan& logical,
                                       const TemplateKeyFn& key = {}) {
  return enumerator.Resolve(logical, key).ValueOrDie();
}

// The whole plan space as one shard: the serial candidate stream.
EnumerationShard SerialShard(const PlanEnumerator& enumerator) {
  return Space(enumerator, JoinPlan())->PartitionShards(1).ValueOrDie().front();
}

// Candidate i of a chunk as the plan its closed form describes: the
// template with every operator's VM count taken from the pick. Built
// independently of PlanSpace::Materialize.
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
    auto status = SerialShard(enumerator).StreamCandidates(
        chunk_size, [&](const CandidateChunk& chunk) -> Status {
          EXPECT_GT(chunk.size(), 0u);
          EXPECT_LE(chunk.size(), chunk_size);
          EXPECT_EQ(chunk.num_sites, env.federation.num_sites());
          EXPECT_EQ(chunk.template_of.size(), chunk.size());
          EXPECT_EQ(chunk.keys.size(), chunk.templates.size());
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
  auto status = SerialShard(enumerator).StreamCandidates(
      4, [&](const CandidateChunk&) -> Status {
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
  ASSERT_TRUE(SerialShard(enumerator)
                  .StreamCandidates(2,
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
  EXPECT_FALSE(all.StreamCandidates(0, noop).ok());
  EXPECT_FALSE(all.StreamCandidates(4, CandidateVisitor()).ok());
}

TEST(EnumeratorTest, ChunkedReportsNoFeasiblePlan) {
  Environment env = MakeEnvironment();
  EnumeratorOptions options;
  options.node_counts = {16};  // exceeds both sites' max of 8
  PlanEnumerator enumerator(&env.federation, &env.catalog, options);
  // Resolving reports the infeasible space before any shard or candidate
  // exists.
  EXPECT_EQ(enumerator.Resolve(JoinPlan()).status().code(),
            StatusCode::kFailedPrecondition);
}

TEST(EnumeratorTest, NonPositiveNodeCountsRejectedBeforeAnyCandidate) {
  Environment env = MakeEnvironment();
  for (std::vector<int> counts :
       {std::vector<int>{1, 0}, std::vector<int>{2, -1}}) {
    EnumeratorOptions options;
    options.node_counts = counts;
    PlanEnumerator enumerator(&env.federation, &env.catalog, options);
    // No space, so no shard and no candidate, even one that would use
    // only the valid count; the key function is never reached either.
    size_t keys = 0;
    const auto key = [&keys](const QueryPlan&) -> StatusOr<TemplateKey> {
      ++keys;
      return TemplateKey{1.0};
    };
    EXPECT_EQ(enumerator.Resolve(JoinPlan(), key).status().code(),
              StatusCode::kInvalidArgument);
    EXPECT_EQ(keys, 0u);
    EXPECT_EQ(enumerator.EnumeratePhysical(JoinPlan()).status().code(),
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
  const auto space = Space(enumerator, JoinPlan());
  EXPECT_EQ(space->size(), n);
  // Out of order, with a repeat, first and last included.
  const std::vector<uint64_t> seqs = {n - 1, 3, 0, 7, 3, n / 2};
  auto rebuilt = space->Materialize(seqs);
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
  EXPECT_TRUE(space->Materialize({})->empty());
  EXPECT_EQ(space->Materialize({n}).status().code(), StatusCode::kOutOfRange);
}

// Runs every shard and returns candidate plan strings indexed by global
// sequence number, verifying chunk/seq alignment along the way.
std::vector<std::string> CollectSharded(
    const std::vector<EnumerationShard>& shards, size_t total,
    size_t chunk_size) {
  std::vector<std::string> by_seq(total);
  std::vector<char> seen(total, 0);
  for (const EnumerationShard& shard : shards) {
    uint64_t emitted = 0;
    auto status = shard.StreamCandidates(
        chunk_size, [&](const CandidateChunk& chunk) -> Status {
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
    EXPECT_EQ(emitted, shard.planned_emissions());
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
    auto shards = Space(enumerator, JoinPlan())->PartitionShards(num_shards);
    ASSERT_TRUE(shards.ok()) << "shards=" << num_shards;
    ASSERT_EQ(shards->size(), num_shards);
    uint64_t planned = 0;
    for (const EnumerationShard& shard : *shards) {
      planned += shard.planned_emissions();
      // Strata ascend by index and planned_emissions is their sum.
      uint64_t from_strata = 0;
      for (size_t i = 0; i < shard.strata().size(); ++i) {
        from_strata += shard.strata()[i].feasible;
        if (i > 0) {
          EXPECT_LT(shard.strata()[i - 1].index, shard.strata()[i].index);
        }
      }
      EXPECT_EQ(from_strata, shard.planned_emissions());
    }
    EXPECT_EQ(planned, want.size()) << "shards=" << num_shards;
    const std::vector<std::string> got =
        CollectSharded(*shards, want.size(), /*chunk_size=*/3);
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

  auto shards = Space(enumerator, JoinPlan())->PartitionShards(3);
  ASSERT_TRUE(shards.ok());
  uint64_t planned = 0;
  for (const EnumerationShard& shard : *shards) {
    planned += shard.planned_emissions();
  }
  EXPECT_EQ(planned, 5u);
  // The union of the shards is exactly the first max_plans serial plans.
  const std::vector<std::string> got =
      CollectSharded(*shards, 5, /*chunk_size=*/2);
  EXPECT_EQ(got, PlanStrings(*capped));
}

TEST(EnumeratorTest, PartitionShardsBalancesAndIsDeterministic) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  auto first = Space(enumerator, JoinPlan())->PartitionShards(4);
  auto second = Space(enumerator, JoinPlan())->PartitionShards(4);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(first->size(), second->size());
  for (size_t s = 0; s < first->size(); ++s) {
    const EnumerationShard& a = (*first)[s];
    const EnumerationShard& b = (*second)[s];
    EXPECT_EQ(a.planned_emissions(), b.planned_emissions());
    ASSERT_EQ(a.strata().size(), b.strata().size());
    for (size_t i = 0; i < a.strata().size(); ++i) {
      EXPECT_EQ(a.strata()[i].index, b.strata()[i].index);
      EXPECT_EQ(a.strata()[i].seq_base, b.strata()[i].seq_base);
    }
  }
  // No shard should carry everything when there are enough strata.
  uint64_t total = 0;
  uint64_t largest = 0;
  for (const EnumerationShard& shard : *first) {
    total += shard.planned_emissions();
    largest = std::max(largest, shard.planned_emissions());
  }
  EXPECT_LT(largest, total);
}

TEST(EnumeratorTest, PartitionShardsErrors) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  EXPECT_FALSE(Space(enumerator, JoinPlan())->PartitionShards(0).ok());

  EnumeratorOptions infeasible;
  infeasible.node_counts = {16};  // exceeds both sites' max of 8
  PlanEnumerator bad(&env.federation, &env.catalog, infeasible);
  // Same "no feasible physical plan" as serial, before any shard exists.
  EXPECT_FALSE(bad.Resolve(JoinPlan()).ok());
}

TEST(EnumeratorTest, ShardChunkedRejectsBadArguments) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  const auto space = Space(enumerator, JoinPlan());
  auto shards = space->PartitionShards(2);
  ASSERT_TRUE(shards.ok());
  auto noop = [](const CandidateChunk&) { return Status::OK(); };
  EXPECT_FALSE((*shards)[0].StreamCandidates(0, noop).ok());
  EXPECT_FALSE((*shards)[0].StreamCandidates(4, CandidateVisitor()).ok());
  // An empty shard (more shards than strata) is fine: no chunks, no error.
  auto many = space->PartitionShards(space->strata().size() + 1);
  ASSERT_TRUE(many.ok());
  ASSERT_TRUE(many->back().strata().empty());
  size_t calls = 0;
  EXPECT_TRUE(many->back()
                  .StreamCandidates(4,
                                    [&](const CandidateChunk&) {
                                      ++calls;
                                      return Status::OK();
                                    })
                  .ok());
  EXPECT_EQ(calls, 0u);
}

// A shard is made only by PartitionShards and holds the space it came
// from: it cannot be built by hand or streamed against another logical
// plan, and it outlives the caller's handles to its space and enumerator.
static_assert(!std::is_default_constructible_v<EnumerationShard>);

TEST(EnumeratorTest, ShardStreamsOnlyTheSpaceItCameFrom) {
  Environment env = MakeEnvironment();
  const QueryPlan scan_only(MakeScan("t1"));
  std::vector<EnumerationShard> join_shards;
  std::vector<EnumerationShard> scan_shards;
  std::vector<std::string> join_plans;
  std::vector<std::string> scan_plans;
  {
    PlanEnumerator enumerator(&env.federation, &env.catalog);
    join_plans =
        PlanStrings(enumerator.EnumeratePhysical(JoinPlan()).ValueOrDie());
    scan_plans =
        PlanStrings(enumerator.EnumeratePhysical(scan_only).ValueOrDie());
    ASSERT_NE(join_plans.size(), scan_plans.size());
    join_shards =
        Space(enumerator, JoinPlan())->PartitionShards(2).ValueOrDie();
    scan_shards =
        Space(enumerator, scan_only)->PartitionShards(2).ValueOrDie();
  }
  // The enumerator and the spaces' handles are gone; each shard still
  // streams exactly its own space's candidates.
  EXPECT_EQ(CollectSharded(join_shards, join_plans.size(), 5), join_plans);
  EXPECT_EQ(CollectSharded(scan_shards, scan_plans.size(), 5), scan_plans);
}

// A key that depends only on the set of sites hosting an operator: every
// (variant, compute) group whose operators cover the same sites shares
// it, like a feature row.
TemplateKey SiteSetKey(size_t num_sites, const QueryPlan& plan_template) {
  TemplateKey key(num_sites, 0.0);
  for (const PlanNode* node : plan_template.Nodes()) key[*node->site] = 1.0;
  return key;
}

// Every stratum's candidates by rank: the per-site VM counts the stream
// emits, indexed by sequence number (shards of a keyless space).
std::vector<std::vector<int>> SiteNodesBySeq(const PlanSpace& space) {
  std::vector<std::vector<int>> out(space.size());
  const auto record = [&out](const CandidateChunk& chunk) {
    for (size_t i = 0; i < chunk.size(); ++i) {
      out[chunk.seqs[i]].assign(chunk.nodes(i),
                                chunk.nodes(i) + chunk.num_sites);
    }
    return Status::OK();
  };
  for (const EnumerationShard& shard : space.PartitionShards(1).ValueOrDie()) {
    EXPECT_TRUE(shard.StreamCandidates(7, record).ok());
  }
  return out;
}

// Checks the alias contract on one keyed space: leaders and aliases
// partition the serial sequence; each alias stratum's per-site VM counts
// equal its leader's at every rank; the keyed shards stream exactly the
// leader candidates. Returns the number of alias strata.
size_t ExpectAliasesRepeatTheirLeaders(const PlanEnumerator& enumerator,
                                       const QueryPlan& logical,
                                       const TemplateKeyFn& key) {
  const auto keyless = Space(enumerator, logical);
  const auto keyed = Space(enumerator, logical, key);
  EXPECT_EQ(keyed->size(), keyless->size());
  EXPECT_EQ(keyless->leader_size(), keyless->size());
  const std::vector<std::vector<int>> serial = SiteNodesBySeq(*keyless);

  // Same strata and sequence numbers; leader_base only marks aliases.
  const auto& strata = keyed->strata();
  EXPECT_EQ(strata.size(), keyless->strata().size());
  std::vector<char> leader_seq(keyed->size(), 0);
  uint64_t next = 0;
  uint64_t leader_total = 0;
  size_t aliases = 0;
  for (size_t s = 0; s < strata.size(); ++s) {
    const PlanSpace::Stratum& stratum = strata[s];
    EXPECT_EQ(stratum.index, keyless->strata()[s].index);
    EXPECT_EQ(stratum.seq_base, next);
    next += stratum.feasible;
    if (!stratum.aliased()) {
      leader_total += stratum.feasible;
      for (uint64_t r = 0; r < stratum.feasible; ++r) {
        leader_seq[stratum.seq_base + r] = 1;
      }
      continue;
    }
    ++aliases;
    EXPECT_LT(stratum.leader_base, stratum.seq_base);
    for (uint64_t r = 0; r < stratum.feasible; ++r) {
      EXPECT_EQ(serial[stratum.seq_base + r], serial[stratum.leader_base + r])
          << "alias seq " << stratum.seq_base + r;
    }
  }
  EXPECT_EQ(next, keyed->size());
  EXPECT_EQ(leader_total, keyed->leader_size());

  // The keyed shards emit every leader candidate once and nothing else.
  for (size_t num_shards : {size_t{1}, size_t{3}}) {
    std::vector<char> streamed(keyed->size(), 0);
    const auto mark = [&streamed](const CandidateChunk& chunk) {
      for (uint64_t seq : chunk.seqs) {
        EXPECT_EQ(streamed[seq], 0);
        streamed[seq] = 1;
      }
      return Status::OK();
    };
    for (const EnumerationShard& shard :
         keyed->PartitionShards(num_shards).ValueOrDie()) {
      EXPECT_TRUE(shard.StreamCandidates(5, mark).ok());
    }
    EXPECT_EQ(streamed, leader_seq) << "shards=" << num_shards;
  }
  return aliases;
}

TEST(EnumeratorTest, AliasStrataRepeatTheirLeadersRankForRank) {
  Environment env = MakeEnvironment();
  const size_t sites = env.federation.num_sites();
  const TemplateKeyFn key = [sites](const QueryPlan& plan_template) {
    return StatusOr<TemplateKey>(SiteSetKey(sites, plan_template));
  };
  for (const std::vector<int>& counts :
       {std::vector<int>{1, 2, 4, 8}, std::vector<int>{1, 2, 4, 16}}) {
    EnumeratorOptions options;
    options.node_counts = counts;
    PlanEnumerator enumerator(&env.federation, &env.catalog, options);
    // Both join orders at either site cover both sites: one leader group.
    const size_t aliases =
        ExpectAliasesRepeatTheirLeaders(enumerator, JoinPlan(), key);
    EXPECT_GT(aliases, 0u);
    const auto keyed = Space(enumerator, JoinPlan(), key);
    EXPECT_EQ(keyed->leader_size() * 4, keyed->size());
  }
}

TEST(EnumeratorTest, ScanOnlyUnconstrainedComputeSiteIsNotAliased) {
  // Three sites, t1 scanned at A. Computing at B or C makes that site a
  // participating but unconstrained (leading) digit: its strata emit one
  // pick per admissible count of A, with the same operator-hosting sites
  // as computing at A, whose strata emit one pick each. Equal keys,
  // different site specs: no alias may cross them.
  Environment env = MakeEnvironment();
  SiteConfig c;
  c.name = "C";
  c.engines = {EngineKind::kSpark};
  c.node_type = {ProviderKind::kAmazon, "c1.large", 2, 4.0, 0.0, 0.02};
  c.max_nodes = 16;
  env.federation.AddSite(c).ValueOrDie();
  const size_t sites = env.federation.num_sites();
  const TemplateKeyFn key = [sites](const QueryPlan& plan_template) {
    return StatusOr<TemplateKey>(SiteSetKey(sites, plan_template));
  };
  const QueryPlan scan_only(MakeScan("t1"));
  for (const std::vector<int>& counts :
       {std::vector<int>{1, 2, 4, 8}, std::vector<int>{1, 4, 16}}) {
    EnumeratorOptions options;
    options.node_counts = counts;
    PlanEnumerator enumerator(&env.federation, &env.catalog, options);
    EXPECT_EQ(ExpectAliasesRepeatTheirLeaders(enumerator, scan_only, key),
              0u);
    // The stream itself still tells the computes apart: A's strata emit
    // one pick each, B's and C's one per admissible count of A.
    const auto keyed = Space(enumerator, scan_only, key);
    EXPECT_EQ(keyed->leader_size(), keyed->size());
    EXPECT_LT(keyed->strata().front().feasible,
              keyed->strata().back().feasible);
  }
}

TEST(EnumeratorTest, DistinctKeysMeanNoAliases) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  double next = 0.0;
  const TemplateKeyFn key = [&next](const QueryPlan&) {
    return StatusOr<TemplateKey>(TemplateKey{next++});
  };
  EXPECT_EQ(ExpectAliasesRepeatTheirLeaders(enumerator, JoinPlan(), key), 0u);
  const auto keyed = Space(enumerator, JoinPlan(), key);
  EXPECT_EQ(keyed->leader_size(), keyed->size());
}

TEST(EnumeratorTest, MaxPlansCapInsideAnAliasGroup) {
  Environment env = MakeEnvironment();
  const size_t sites = env.federation.num_sites();
  const TemplateKeyFn key = [sites](const QueryPlan& plan_template) {
    return StatusOr<TemplateKey>(SiteSetKey(sites, plan_template));
  };
  PlanEnumerator uncapped(&env.federation, &env.catalog);
  const auto full = Space(uncapped, JoinPlan(), key);
  // Cap halfway through the second stratum of the first alias group.
  const PlanSpace::Stratum* cut = nullptr;
  size_t seen_aliases = 0;
  for (const PlanSpace::Stratum& stratum : full->strata()) {
    if (stratum.aliased() && ++seen_aliases == 2) {
      cut = &stratum;
      break;
    }
  }
  ASSERT_NE(cut, nullptr);
  ASSERT_GE(cut->feasible, 2u);
  EnumeratorOptions options;
  options.max_plans = cut->seq_base + cut->feasible / 2;
  PlanEnumerator capped(&env.federation, &env.catalog, options);
  ExpectAliasesRepeatTheirLeaders(capped, JoinPlan(), key);
  const auto space = Space(capped, JoinPlan(), key);
  EXPECT_EQ(space->size(), options.max_plans);
  EXPECT_TRUE(space->strata().back().aliased());
  EXPECT_EQ(space->strata().back().feasible, cut->feasible / 2);
}

TEST(EnumeratorTest, FailingKeyPropagatesItsStatus) {
  Environment env = MakeEnvironment();
  PlanEnumerator enumerator(&env.federation, &env.catalog);
  size_t calls = 0;
  const TemplateKeyFn key =
      [&calls](const QueryPlan&) -> StatusOr<TemplateKey> {
    if (++calls == 2) return Status::NotFound("key store down");
    return TemplateKey{1.0};
  };
  const auto space = enumerator.Resolve(JoinPlan(), key);
  EXPECT_EQ(space.status().code(), StatusCode::kNotFound);
  EXPECT_EQ(space.status().message(), "key store down");
  EXPECT_EQ(calls, 2u);
}

TEST(EnumeratorTest, Example31ResourceConfigurations) {
  // 70 vCPU x 260 GiB = 18,200 equivalent configurations.
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(70, 260), 18200u);
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(0, 10), 0u);
  EXPECT_EQ(PlanEnumerator::CountResourceConfigurations(-1, 10), 0u);
}

}  // namespace
}  // namespace midas

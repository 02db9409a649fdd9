#include "engine/simulator.h"

#include <gtest/gtest.h>

#include "query/enumerator.h"

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
  wan.latency_ms = 10.0;
  wan.egress_price_per_gib = 0.09;
  env.federation.network().SetSymmetricLink(env.site_a, env.site_b, wan)
      .CheckOK();

  TableDef big;
  big.name = "big";
  big.row_count = 100000;
  big.columns = {{"id", ColumnType::kInt, 8.0, 100000},
                 {"payload", ColumnType::kString, 92.0, 100000}};
  env.catalog.AddTable(big).CheckOK();
  TableDef small;
  small.name = "small";
  small.row_count = 1000;
  small.columns = {{"id", ColumnType::kInt, 8.0, 1000}};
  env.catalog.AddTable(small).CheckOK();
  env.federation.PlaceTable("big", env.site_a, EngineKind::kHive).CheckOK();
  env.federation.PlaceTable("small", env.site_b, EngineKind::kPostgres)
      .CheckOK();
  return env;
}

// A physical single-scan plan at site A on Hive.
QueryPlan ScanPlan(const Environment& env, int nodes = 1) {
  auto scan = MakeScan("big");
  scan->site = env.site_a;
  scan->engine = EngineKind::kHive;
  scan->num_nodes = nodes;
  return QueryPlan(std::move(scan));
}

// Join at the given site/engine, scans pinned to their placements.
QueryPlan JoinPlan(const Environment& env, SiteId compute_site,
                   EngineKind compute_engine) {
  auto left = MakeScan("big");
  left->site = env.site_a;
  left->engine = EngineKind::kHive;
  auto right = MakeScan("small");
  right->site = env.site_b;
  right->engine = EngineKind::kPostgres;
  auto join = MakeJoin(std::move(left), std::move(right), "id", "id");
  join->site = compute_site;
  join->engine = compute_engine;
  return QueryPlan(std::move(join));
}

SimulatorOptions Deterministic() {
  SimulatorOptions options;
  options.stochastic = false;
  options.variance.drift_amplitude = 0.0;
  options.variance.ar_sigma = 0.0;
  options.variance.noise_sigma = 0.0;
  return options;
}

TEST(SimulatorTest, ScanCostIncludesStartup) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  auto m = sim.Execute(ScanPlan(env));
  ASSERT_TRUE(m.ok());
  // Hive startup alone is 12 s.
  EXPECT_GT(m->seconds, 12.0);
  EXPECT_GT(m->dollars, 0.0);
  EXPECT_DOUBLE_EQ(m->bytes_transferred, 0.0);
}

TEST(SimulatorTest, MoreNodesReduceTime) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  const double t1 = sim.Execute(ScanPlan(env, 1)).ValueOrDie().seconds;
  const double t4 = sim.Execute(ScanPlan(env, 4)).ValueOrDie().seconds;
  EXPECT_LT(t4, t1);
}

TEST(SimulatorTest, RemoteJoinTransfersBytes) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  auto at_a = sim.Execute(JoinPlan(env, env.site_a, EngineKind::kHive));
  ASSERT_TRUE(at_a.ok());
  // The small table must travel from B to A.
  EXPECT_GT(at_a->bytes_transferred, 0.0);
}

TEST(SimulatorTest, TransferredVolumeDependsOnJoinSite) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  const double to_a =
      sim.Execute(JoinPlan(env, env.site_a, EngineKind::kHive))
          .ValueOrDie()
          .bytes_transferred;
  const double to_b =
      sim.Execute(JoinPlan(env, env.site_b, EngineKind::kPostgres))
          .ValueOrDie()
          .bytes_transferred;
  // Joining at B ships the big table; joining at A ships the small one.
  EXPECT_GT(to_b, to_a);
}

TEST(SimulatorTest, EgressChargedOnTransfers) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  auto local = sim.ExpectedCostAt(ScanPlan(env), 0);
  auto remote =
      sim.ExpectedCostAt(JoinPlan(env, env.site_b, EngineKind::kPostgres), 0);
  ASSERT_TRUE(local.ok());
  ASSERT_TRUE(remote.ok());
  EXPECT_GT(remote->dollars, 0.0);
}

TEST(SimulatorTest, ClockAdvancesPerExecution) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  EXPECT_EQ(sim.now(), 0);
  auto m0 = sim.Execute(ScanPlan(env));
  ASSERT_TRUE(m0.ok());
  EXPECT_EQ(m0->timestamp, 0);
  EXPECT_EQ(sim.now(), 1);
  sim.AdvanceClock(10);
  EXPECT_EQ(sim.now(), 11);
}

TEST(SimulatorTest, DeterministicModeIsRepeatable) {
  Environment env = MakeEnvironment();
  ExecutionSimulator a(&env.federation, &env.catalog, Deterministic());
  ExecutionSimulator b(&env.federation, &env.catalog, Deterministic());
  EXPECT_DOUBLE_EQ(a.Execute(ScanPlan(env)).ValueOrDie().seconds,
                   b.Execute(ScanPlan(env)).ValueOrDie().seconds);
}

TEST(SimulatorTest, StochasticModeVariesAcrossExecutions) {
  Environment env = MakeEnvironment();
  SimulatorOptions options;  // default stochastic variance
  ExecutionSimulator sim(&env.federation, &env.catalog, options);
  const double t0 = sim.Execute(ScanPlan(env)).ValueOrDie().seconds;
  const double t1 = sim.Execute(ScanPlan(env)).ValueOrDie().seconds;
  EXPECT_NE(t0, t1);
}

TEST(SimulatorTest, ExpectedCostFollowsSeasonalLoad) {
  Environment env = MakeEnvironment();
  SimulatorOptions options;
  options.stochastic = false;
  options.variance.drift_amplitude = 0.5;
  options.variance.drift_period = 100.0;
  options.variance.noise_sigma = 0.0;
  options.variance.ar_sigma = 0.0;
  ExecutionSimulator sim(&env.federation, &env.catalog, options);
  const double peak = sim.ExpectedCostAt(ScanPlan(env), 25).ValueOrDie().seconds;
  const double trough =
      sim.ExpectedCostAt(ScanPlan(env), 75).ValueOrDie().seconds;
  EXPECT_NE(peak, trough);
}

TEST(SimulatorTest, ExpectedCostAtLeavesExecutionStreamUntouched) {
  // The plan-quality oracle costs every candidate with ExpectedCostAt
  // between executions; that must neither draw noise nor advance the AR
  // load state or the clock, or the served run would change.
  Environment env = MakeEnvironment();
  SimulatorOptions options;  // default stochastic variance
  options.seed = 7;
  ExecutionSimulator plain(&env.federation, &env.catalog, options);
  ExecutionSimulator probed(&env.federation, &env.catalog, options);
  const QueryPlan scan = ScanPlan(env, 2);
  const QueryPlan join = JoinPlan(env, env.site_b, EngineKind::kPostgres);
  for (int i = 0; i < 6; ++i) {
    const QueryPlan& plan = i % 2 == 0 ? scan : join;
    const int64_t now = probed.now();
    for (int64_t t : {now, now + 1, int64_t{0}, int64_t{75}}) {
      ASSERT_TRUE(probed.ExpectedCostAt(scan, t).ok());
      ASSERT_TRUE(probed.ExpectedCostAt(join, t).ok());
    }
    const Measurement a = plain.Execute(plan).ValueOrDie();
    const Measurement b = probed.Execute(plan).ValueOrDie();
    EXPECT_EQ(a.seconds, b.seconds) << "execution " << i;
    EXPECT_EQ(a.dollars, b.dollars) << "execution " << i;
    EXPECT_EQ(a.bytes_transferred, b.bytes_transferred) << "execution " << i;
    EXPECT_EQ(a.timestamp, b.timestamp) << "execution " << i;
    EXPECT_EQ(plain.now(), probed.now());
  }
}

TEST(SimulatorTest, UnannotatedPlanRejected) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  QueryPlan logical(MakeScan("big"));  // no site/engine
  EXPECT_FALSE(sim.Execute(logical).ok());
}

TEST(SimulatorTest, ProfileOverrideChangesCosts) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  const double before = sim.Execute(ScanPlan(env)).ValueOrDie().seconds;
  CostProfile instant = DefaultCostProfile(EngineKind::kHive);
  instant.startup_seconds = 0.0;
  sim.SetProfile(EngineKind::kHive, instant);
  const double after = sim.Execute(ScanPlan(env)).ValueOrDie().seconds;
  EXPECT_LT(after, before);
  EXPECT_NEAR(before - after, 12.0, 1e-6);
}

TEST(SimulatorTest, PostgresIgnoresExtraNodesForCompute) {
  Environment env = MakeEnvironment();
  ExecutionSimulator sim(&env.federation, &env.catalog, Deterministic());
  auto scan1 = MakeScan("small");
  scan1->site = env.site_b;
  scan1->engine = EngineKind::kPostgres;
  scan1->num_nodes = 1;
  auto scan4 = scan1->Clone();
  scan4->num_nodes = 4;
  const double t1 =
      sim.ExpectedCostAt(QueryPlan(std::move(scan1)), 0).ValueOrDie().seconds;
  const double t4 =
      sim.ExpectedCostAt(QueryPlan(std::move(scan4)), 0).ValueOrDie().seconds;
  EXPECT_DOUBLE_EQ(t1, t4);
}

}  // namespace
}  // namespace midas

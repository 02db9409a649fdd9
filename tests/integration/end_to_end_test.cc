// Cross-module integration tests: the full MIDAS pipeline over the TPC-H
// substrate, exercising enumeration, estimation, MOQP, execution and the
// feedback loop together.

#include <gtest/gtest.h>

#include "ires/features.h"
#include "ires/scheduler.h"
#include "midas/experiments.h"
#include "optimizer/best_in_pareto.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "optimizer/pareto.h"
#include "tpch/workload.h"

namespace midas {
namespace {

// MIDAS over the TPC-H catalog: place Q12's tables across the paper
// federation and run the full loop.
TEST(EndToEndTest, TpchQ12ThroughMidas) {
  Federation federation = Federation::PaperFederation();
  tpch::WorkloadOptions wl_opts;
  wl_opts.scale_factor = 0.05;
  tpch::Workload workload(wl_opts);
  Catalog catalog = workload.catalog();
  const SiteId a = federation.FindSiteByName("cloud-A").ValueOrDie();
  const SiteId b = federation.FindSiteByName("cloud-B").ValueOrDie();
  federation.PlaceTable("lineitem", a, EngineKind::kHive).CheckOK();
  federation.PlaceTable("orders", b, EngineKind::kPostgres).CheckOK();

  MidasSystem system(std::move(federation), std::move(catalog),
                     MidasOptions());
  QueryPlan q12 = tpch::MakeQuery(12).ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("q12", q12, 20).ok());

  QueryPolicy policy;
  policy.weights = {0.6, 0.4};
  auto outcome = system.RunQuery("q12", q12, policy);
  ASSERT_TRUE(outcome.ok());
  EXPECT_GT(outcome->moqp.candidates_examined, 50u);
  EXPECT_GT(outcome->actual.seconds, 0.0);
}

// The Pareto set must offer a real time/money trade-off: its extremes
// differ in both metrics.
TEST(EndToEndTest, ParetoSetOffersTradeoff) {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(0.1).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasSystem system(std::move(federation), std::move(catalog),
                     MidasOptions());
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("e21", query, 24).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("e21", query, policy);
  ASSERT_TRUE(outcome.ok());
  const auto& costs = outcome->moqp.pareto_costs;
  if (costs.size() >= 2) {
    double min_t = costs[0][0], max_t = costs[0][0];
    double min_m = costs[0][1], max_m = costs[0][1];
    for (const Vector& c : costs) {
      min_t = std::min(min_t, c[0]);
      max_t = std::max(max_t, c[0]);
      min_m = std::min(min_m, c[1]);
      max_m = std::max(max_m, c[1]);
    }
    EXPECT_LT(min_t, max_t);
    EXPECT_LT(min_m, max_m);
  }
}

// Feedback loop: repeated queries keep extending the history, and DREAM
// keeps working as the environment drifts underneath.
TEST(EndToEndTest, AdaptiveLoopSurvivesDrift) {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.simulator.variance.drift_amplitude = 0.6;
  options.simulator.variance.drift_period = 40.0;
  MidasSystem system(std::move(federation), std::move(catalog), options);
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("e21", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  for (int i = 0; i < 10; ++i) {
    auto outcome = system.RunQuery("e21", query, policy);
    ASSERT_TRUE(outcome.ok()) << "iteration " << i;
  }
  EXPECT_EQ(system.modelling().history().SizeOf("e21"), 26u);
}

// DREAM must track a drifting environment better than the full-history
// baseline — the paper's central claim, checked end to end on Q17.
TEST(EndToEndTest, DreamBeatsFullHistoryUnderDrift) {
  MreExperimentOptions options;
  options.query_ids = {17};
  options.warmup_runs = 30;
  options.eval_runs = 40;
  options.seed = 2019;
  options.estimators = {
      EstimatorConfig::Bml(WindowPolicy::kAll),
      EstimatorConfig::DreamDefault(),
  };
  auto report = RunMreExperiment(options);
  ASSERT_TRUE(report.ok());
  const double bml_all = report->time_mre[0][0];
  const double dream = report->time_mre[0][1];
  EXPECT_LT(dream, bml_all);
}

// The scheduler's recorded features must be exactly what the feature
// extractor computes for the executed plan.
TEST(EndToEndTest, RecordedFeaturesMatchExtractor) {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasSystem system(std::move(federation), std::move(catalog),
                     MidasOptions());
  QueryPlan query = MakeExample21Query().ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("e21", query, 16).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("e21", query, policy);
  ASSERT_TRUE(outcome.ok());
  const TrainingSet* history =
      system.modelling().history().Get("e21").ValueOrDie();
  const Observation& last = history->at(history->size() - 1);
  auto expected =
      ExtractFeatures(system.federation(), outcome->moqp.chosen_plan());
  ASSERT_TRUE(expected.ok());
  EXPECT_EQ(last.features, *expected);
}

// Paper §5 future work: the pipeline must carry over to a three-provider
// federation unchanged — more placement choices, bigger plan space.
TEST(EndToEndTest, ThreeCloudFederationRunsQ14) {
  Federation federation = Federation::ThreeCloudFederation();
  tpch::WorkloadOptions wl_opts;
  wl_opts.scale_factor = 0.05;
  tpch::Workload workload(wl_opts);
  Catalog catalog = workload.catalog();
  const SiteId a = federation.FindSiteByName("cloud-A").ValueOrDie();
  const SiteId c = federation.FindSiteByName("cloud-C").ValueOrDie();
  federation.PlaceTable("lineitem", a, EngineKind::kHive).CheckOK();
  federation.PlaceTable("part", c, EngineKind::kPostgres).CheckOK();

  MidasSystem system(std::move(federation), std::move(catalog),
                     MidasOptions());
  QueryPlan q14 = tpch::MakeQuery(14).ValueOrDie();
  ASSERT_TRUE(system.Bootstrap("q14", q14, 20).ok());
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  auto outcome = system.RunQuery("q14", q14, policy);
  ASSERT_TRUE(outcome.ok());
  // Three sites x several engines: the plan space must be larger than the
  // two-cloud setups (which examine ~128 candidates).
  EXPECT_GT(outcome->moqp.candidates_examined, 128u);
  EXPECT_GT(outcome->actual.seconds, 0.0);
}

}  // namespace
}  // namespace midas

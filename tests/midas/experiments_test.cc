#include "midas/experiments.h"

#include <gtest/gtest.h>

namespace midas {
namespace {

TEST(PaperTable2Test, ReproducesPaperRSquaredColumn) {
  auto rows = PaperTable2Rows();
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 7u);  // M = 4 .. 10
  const std::vector<double> paper = {0.7571, 0.7705, 0.8371, 0.8788,
                                     0.8876, 0.8751, 0.8945};
  for (size_t i = 0; i < paper.size(); ++i) {
    EXPECT_EQ((*rows)[i].m, i + 4);
    EXPECT_NEAR((*rows)[i].r2, paper[i], 5e-4) << "M=" << (*rows)[i].m;
  }
}

TEST(PaperTable2Test, RSquaredCrossesThresholdAtSix) {
  // The paper's reading: R² >= 0.8 is first reached at M = 6.
  auto rows = PaperTable2Rows().ValueOrDie();
  EXPECT_LT(rows[0].r2, 0.8);  // M=4
  EXPECT_LT(rows[1].r2, 0.8);  // M=5
  EXPECT_GE(rows[2].r2, 0.8);  // M=6
}

TEST(SyntheticR2SweepTest, GrowsWithWindow) {
  auto rows = SyntheticR2Sweep(20, /*noise_sigma=*/2.0, /*seed=*/5);
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows->size(), 17u);
  // R² at the largest window should comfortably exceed a small-window dip;
  // compare the mean of the last three against the first value minus slack.
  const double late = ((*rows)[14].r2 + (*rows)[15].r2 + (*rows)[16].r2) / 3;
  EXPECT_GT(late, 0.5);
}

TEST(SyntheticR2SweepTest, CleanDataSaturates) {
  auto rows = SyntheticR2Sweep(15, /*noise_sigma=*/0.0, /*seed=*/6);
  ASSERT_TRUE(rows.ok());
  for (const R2Row& row : *rows) {
    EXPECT_NEAR(row.r2, 1.0, 1e-9);
  }
}

TEST(SyntheticR2SweepTest, RejectsTinyMmax) {
  EXPECT_FALSE(SyntheticR2Sweep(3, 1.0, 1).ok());
  EXPECT_EQ(SyntheticR2Sweep(10, -1.0, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(MreExperimentTest, DefaultsFillPaperColumns) {
  MreExperimentOptions options;
  options.ApplyDefaults();
  EXPECT_EQ(options.query_ids, (std::vector<int>{12, 13, 14, 17}));
  ASSERT_EQ(options.estimators.size(), 5u);
  EXPECT_EQ(EstimatorName(options.estimators[0]), "BML_N");
  EXPECT_EQ(EstimatorName(options.estimators[3]), "BML");
  EXPECT_EQ(EstimatorName(options.estimators[4]), "DREAM");
}

TEST(MreExperimentTest, SmallRunProducesFullGrid) {
  MreExperimentOptions options;
  options.query_ids = {12};
  options.warmup_runs = 15;
  options.eval_runs = 10;
  options.seed = 11;
  auto report = RunMreExperiment(options);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->query_ids.size(), 1u);
  ASSERT_EQ(report->time_mre.size(), 1u);
  ASSERT_EQ(report->time_mre[0].size(), 5u);
  ASSERT_EQ(report->money_mre[0].size(), 5u);
  for (double v : report->time_mre[0]) {
    EXPECT_GE(v, 0.0);
    EXPECT_LT(v, 10.0);
  }
  EXPECT_GT(report->base_window, 0u);
  EXPECT_GE(report->mean_dream_window[0],
            static_cast<double>(report->base_window));
}

TEST(MreExperimentTest, DeterministicGivenSeed) {
  MreExperimentOptions options;
  options.query_ids = {14};
  options.warmup_runs = 12;
  options.eval_runs = 6;
  options.seed = 77;
  auto a = RunMreExperiment(options);
  auto b = RunMreExperiment(options);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(a->time_mre, b->time_mre);
  EXPECT_EQ(a->money_mre, b->money_mre);
}

TEST(MreExperimentTest, RejectsZeroEvalRuns) {
  MreExperimentOptions options;
  options.eval_runs = 0;
  EXPECT_FALSE(RunMreExperiment(options).ok());
}

TEST(MreExperimentTest, DreamWindowBoundedByConfiguredCap) {
  MreExperimentOptions options;
  options.query_ids = {12};
  options.warmup_runs = 20;
  options.eval_runs = 8;
  options.dream_m_max_windows = 2;
  auto report = RunMreExperiment(options);
  ASSERT_TRUE(report.ok());
  EXPECT_LE(report->mean_dream_window[0],
            2.0 * static_cast<double>(report->base_window));
}

}  // namespace
}  // namespace midas

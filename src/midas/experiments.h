#ifndef MIDAS_MIDAS_EXPERIMENTS_H_
#define MIDAS_MIDAS_EXPERIMENTS_H_

#include <map>
#include <string>
#include <vector>

#include "engine/variance.h"
#include "ires/modelling.h"
#include "ires/moo_optimizer.h"

namespace midas {

/// \brief Configuration of the paper's estimation-accuracy experiment
/// (Tables 3 and 4): a stream of TPC-H query executions on a drifting
/// two-engine federation, with every estimator predicting each execution's
/// cost just before it happens.
struct MreExperimentOptions {
  /// 0.1 → Table 3 (100 MiB), 1.0 → Table 4 (1 GiB).
  double scale_factor = 0.1;
  /// TPC-H queries to evaluate (defaults to {12, 13, 14, 17}).
  std::vector<int> query_ids;
  /// Executions recorded before evaluation starts (history warm-up).
  size_t warmup_runs = 30;
  /// Evaluated executions per query.
  size_t eval_runs = 80;
  /// Estimators to compare; defaults to the paper's five columns
  /// (BML_N, BML_2N, BML_3N, BML, DREAM).
  std::vector<EstimatorConfig> estimators;
  /// M_max handed to Algorithm 1, as a multiple of the base window N
  /// (paper §4.3: the windows DREAM ends up using stay "around N").
  /// Applied to any DREAM estimator whose m_max is left at 0.
  size_t dream_m_max_windows = 2;
  /// Cloud variance (drift + noise) of the simulated environment.
  VarianceOptions variance;
  uint64_t seed = 2019;

  /// Fills query_ids / estimators with the paper's defaults when empty.
  void ApplyDefaults();
};

/// \brief Result grid: per (query, estimator) Mean Relative Error of the
/// execution-time predictions (Eq. 15), plus the monetary-cost MRE and
/// bookkeeping on DREAM's window sizes.
struct MreReport {
  std::vector<int> query_ids;
  std::vector<std::string> estimator_names;
  /// time_mre[q][e] — MRE of execution-time prediction.
  std::vector<std::vector<double>> time_mre;
  /// money_mre[q][e] — MRE of monetary-cost prediction.
  std::vector<std::vector<double>> money_mre;
  /// Mean DREAM window size observed per query (0 when DREAM not among the
  /// estimators).
  std::vector<double> mean_dream_window;
  /// The base window N = L + 2 used by the BML_kN estimators.
  size_t base_window = 0;
};

/// Runs the experiment. Deterministic given options.seed.
StatusOr<MreReport> RunMreExperiment(MreExperimentOptions options);

/// \brief One row of the paper's Table 2: window size M and the R² the MLR
/// attains on the first M points of a fixed 2-variable dataset.
struct R2Row {
  size_t m = 0;
  double r2 = 0.0;
};

/// Reproduces Table 2 on the paper's literal 10-observation dataset.
StatusOr<std::vector<R2Row>> PaperTable2Rows();

/// Reproduces the Table 2 *shape* on synthetic data: R² of an MLR fitted on
/// the newest m in [L+2, m_max] observations of a linear-plus-noise stream
/// (Gaussian noise of stddev `noise_sigma`; 0 gives noise-free data).
/// InvalidArgument when m_max < 4 or noise_sigma is negative or NaN.
StatusOr<std::vector<R2Row>> SyntheticR2Sweep(size_t m_max, double noise_sigma,
                                              uint64_t seed);

}  // namespace midas

#endif  // MIDAS_MIDAS_EXPERIMENTS_H_

#include "midas/experiments.h"

#include <algorithm>
#include <memory>

#include "common/statistics.h"
#include "engine/simulator.h"
#include "ires/features.h"
#include "ires/scheduler.h"
#include "query/enumerator.h"
#include "regression/ols.h"
#include "tpch/queries.h"
#include "tpch/workload.h"

namespace midas {

void MreExperimentOptions::ApplyDefaults() {
  if (query_ids.empty()) query_ids = tpch::PaperQueryIds();
  if (estimators.empty()) {
    estimators = {
        EstimatorConfig::Bml(WindowPolicy::kLastN),
        EstimatorConfig::Bml(WindowPolicy::kLast2N),
        EstimatorConfig::Bml(WindowPolicy::kLast3N),
        EstimatorConfig::Bml(WindowPolicy::kAll),
        EstimatorConfig::DreamDefault(),
    };
  }
}

namespace {

/// Two-engine federation for the TPC-H experiments: Hive on an Amazon
/// site, PostgreSQL on a Microsoft site — "two tables in two different
/// databases" (§4.2).
Federation MakeExperimentFederation() {
  Federation fed;
  const InstanceCatalog catalog = InstanceCatalog::PaperTable1();

  SiteConfig hive_site;
  hive_site.name = "cloud-A";
  hive_site.provider = ProviderKind::kAmazon;
  hive_site.engines = {EngineKind::kHive};
  hive_site.node_type = catalog.Find("a1.xlarge").ValueOrDie();
  hive_site.max_nodes = 8;
  const SiteId a = fed.AddSite(hive_site).ValueOrDie();

  SiteConfig pg_site;
  pg_site.name = "cloud-B";
  pg_site.provider = ProviderKind::kMicrosoft;
  pg_site.engines = {EngineKind::kPostgres};
  pg_site.node_type = catalog.Find("B2S").ValueOrDie();
  pg_site.max_nodes = 8;
  const SiteId b = fed.AddSite(pg_site).ValueOrDie();

  NetworkLink wan;
  wan.bandwidth_mbps = 200.0;
  wan.latency_ms = 25.0;
  wan.egress_price_per_gib = 0.09;
  fed.network().SetLink(a, b, wan).CheckOK();
  wan.egress_price_per_gib = 0.087;
  fed.network().SetLink(b, a, wan).CheckOK();
  return fed;
}

// Places a paper query's two tables: probe-side table in PostgreSQL on
// cloud-B, the big build-side table (lineitem, or orders for Q13) in Hive
// on cloud-A.
Status PlaceQueryTables(int query_id, Federation* fed) {
  MIDAS_ASSIGN_OR_RETURN(auto tables, tpch::QueryTables(query_id));
  MIDAS_ASSIGN_OR_RETURN(SiteId a, fed->FindSiteByName("cloud-A"));
  MIDAS_ASSIGN_OR_RETURN(SiteId b, fed->FindSiteByName("cloud-B"));
  MIDAS_RETURN_IF_ERROR(
      fed->PlaceTable(tables.first, b, EngineKind::kPostgres));
  return fed->PlaceTable(tables.second, a, EngineKind::kHive);
}

}  // namespace

StatusOr<MreReport> RunMreExperiment(MreExperimentOptions options) {
  options.ApplyDefaults();
  if (options.eval_runs == 0) {
    return Status::InvalidArgument("eval_runs must be positive");
  }

  MreReport report;
  report.query_ids = options.query_ids;
  for (const EstimatorConfig& cfg : options.estimators) {
    report.estimator_names.push_back(EstimatorName(cfg));
  }

  size_t dream_index = options.estimators.size();
  for (size_t e = 0; e < options.estimators.size(); ++e) {
    if (options.estimators[e].kind == EstimatorKind::kDream) dream_index = e;
  }

  for (size_t qi = 0; qi < options.query_ids.size(); ++qi) {
    const int query_id = options.query_ids[qi];

    Federation federation = MakeExperimentFederation();
    MIDAS_RETURN_IF_ERROR(PlaceQueryTables(query_id, &federation));
    tpch::WorkloadOptions wl_opts;
    wl_opts.scale_factor = options.scale_factor;
    wl_opts.seed = options.seed + static_cast<uint64_t>(query_id);
    wl_opts.query_ids = {query_id};
    tpch::Workload workload(wl_opts);
    // The catalog must outlive simulator/enumerator uses below.
    const Catalog& catalog = workload.catalog();

    SimulatorOptions sim_opts;
    sim_opts.variance = options.variance;
    sim_opts.seed = options.seed + static_cast<uint64_t>(query_id) * 101;
    ExecutionSimulator simulator(&federation, &catalog, sim_opts);

    Modelling modelling(FeatureNames(federation), StandardMetricNames(),
                        options.seed + 7);
    Scheduler scheduler(&federation, &simulator, &modelling);
    if (report.base_window == 0) report.base_window = modelling.BaseWindow();

    // Bound Algorithm 1's window cap to a few base windows so an
    // unreachable R² requirement cannot drag the fit into expired history.
    for (EstimatorConfig& cfg : options.estimators) {
      if (cfg.kind == EstimatorKind::kDream && cfg.dream.m_max == 0 &&
          options.dream_m_max_windows > 0) {
        cfg.dream.m_max = options.dream_m_max_windows * modelling.BaseWindow();
      }
    }

    EnumeratorOptions enum_opts;
    enum_opts.node_counts = {1, 2, 4, 8};
    PlanEnumerator enumerator(&federation, &catalog, enum_opts);

    Rng rng(options.seed + static_cast<uint64_t>(query_id) * 977);
    const std::string scope = "tpch-q" + std::to_string(query_id);

    auto run_one = [&](bool evaluate,
                       std::vector<std::vector<double>>* preds_time,
                       std::vector<std::vector<double>>* preds_money,
                       std::vector<double>* actual_time,
                       std::vector<double>* actual_money,
                       RunningStats* window_stats) -> Status {
      MIDAS_ASSIGN_OR_RETURN(tpch::WorkloadItem item,
                             workload.NextForQuery(query_id));
      MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                             enumerator.EnumeratePhysical(item.logical));
      const QueryPlan& plan = plans[rng.Index(plans.size())];
      if (evaluate) {
        MIDAS_ASSIGN_OR_RETURN(Vector x, ExtractFeatures(federation, plan));
        // The drift loop is the writer (feedback below publishes a new
        // epoch every run); this evaluation pass is a reader pinning ONE
        // snapshot so every estimator scores the same frozen state.
        std::shared_ptr<const EstimatorSnapshot> snapshot =
            modelling.Snapshot();
        for (size_t e = 0; e < options.estimators.size(); ++e) {
          auto pred =
              modelling.Predict(*snapshot, scope, x, options.estimators[e]);
          if (pred.ok()) {
            (*preds_time)[e].push_back((*pred)[0]);
            (*preds_money)[e].push_back((*pred)[1]);
          } else {
            // Keep the grid aligned: an estimator that cannot predict at
            // this point contributes its worst case (prediction of zero).
            (*preds_time)[e].push_back(0.0);
            (*preds_money)[e].push_back(0.0);
          }
        }
        if (dream_index < options.estimators.size()) {
          auto diag = modelling.DreamDiagnostics(
              *snapshot, scope, options.estimators[dream_index].dream);
          if (diag.ok()) {
            window_stats->Add(static_cast<double>(diag->window_size));
          }
        }
      }
      MIDAS_ASSIGN_OR_RETURN(Measurement m,
                             scheduler.ExecuteAndRecord(scope, plan));
      if (evaluate) {
        actual_time->push_back(m.seconds);
        actual_money->push_back(m.dollars);
      }
      return Status::OK();
    };

    for (size_t w = 0; w < options.warmup_runs; ++w) {
      MIDAS_RETURN_IF_ERROR(
          run_one(false, nullptr, nullptr, nullptr, nullptr, nullptr));
    }
    std::vector<std::vector<double>> preds_time(options.estimators.size());
    std::vector<std::vector<double>> preds_money(options.estimators.size());
    std::vector<double> actual_time, actual_money;
    RunningStats window_stats;
    for (size_t r = 0; r < options.eval_runs; ++r) {
      MIDAS_RETURN_IF_ERROR(run_one(true, &preds_time, &preds_money,
                                    &actual_time, &actual_money,
                                    &window_stats));
    }

    std::vector<double> row_time, row_money;
    for (size_t e = 0; e < options.estimators.size(); ++e) {
      MIDAS_ASSIGN_OR_RETURN(double mre_t,
                             MeanRelativeError(preds_time[e], actual_time));
      MIDAS_ASSIGN_OR_RETURN(double mre_m,
                             MeanRelativeError(preds_money[e], actual_money));
      row_time.push_back(mre_t);
      row_money.push_back(mre_m);
    }
    report.time_mre.push_back(std::move(row_time));
    report.money_mre.push_back(std::move(row_money));
    report.mean_dream_window.push_back(
        window_stats.count() > 0 ? window_stats.mean() : 0.0);
  }
  return report;
}

StatusOr<std::vector<R2Row>> PaperTable2Rows() {
  // The literal dataset of Table 2 (cost, x1, x2).
  const std::vector<Vector> xs = {
      {0.4916, 0.2977}, {0.6313, 0.0482}, {0.9481, 0.8232},
      {0.4855, 2.7056}, {0.0125, 2.7268}, {0.9029, 2.6456},
      {0.7233, 3.0640}, {0.8749, 4.2847}, {0.3354, 2.1082},
      {0.8521, 4.8217}};
  const Vector costs = {20.640, 15.557, 20.971, 24.878, 23.274,
                        30.216, 29.978, 31.702, 20.860, 32.836};
  std::vector<R2Row> rows;
  for (size_t m = 4; m <= xs.size(); ++m) {
    std::vector<Vector> window(xs.begin(),
                               xs.begin() + static_cast<ptrdiff_t>(m));
    Vector y(costs.begin(), costs.begin() + static_cast<ptrdiff_t>(m));
    MIDAS_ASSIGN_OR_RETURN(OlsModel model, FitOls(window, y));
    rows.push_back({m, model.r_squared()});
  }
  return rows;
}

StatusOr<std::vector<R2Row>> SyntheticR2Sweep(size_t m_max,
                                              double noise_sigma,
                                              uint64_t seed) {
  if (m_max < 4) return Status::InvalidArgument("m_max must be >= 4");
  if (!(noise_sigma >= 0.0)) {
    return Status::InvalidArgument("noise_sigma must be >= 0");
  }
  Rng rng(seed);
  std::vector<Vector> xs;
  Vector ys;
  for (size_t i = 0; i < m_max; ++i) {
    const double x1 = rng.Uniform();
    const double x2 = rng.Uniform(0.0, 5.0);
    xs.push_back({x1, x2});
    // std::normal_distribution requires stddev > 0: clean data draws none.
    const double noise = noise_sigma > 0.0 ? rng.Gaussian(0.0, noise_sigma)
                                           : 0.0;
    ys.push_back(12.0 + 6.0 * x1 + 3.2 * x2 + noise);
  }
  std::vector<R2Row> rows;
  for (size_t m = 4; m <= m_max; ++m) {
    std::vector<Vector> window(xs.begin(),
                               xs.begin() + static_cast<ptrdiff_t>(m));
    Vector y(ys.begin(), ys.begin() + static_cast<ptrdiff_t>(m));
    MIDAS_ASSIGN_OR_RETURN(OlsModel model, FitOls(window, y));
    rows.push_back({m, model.r_squared()});
  }
  return rows;
}

}  // namespace midas

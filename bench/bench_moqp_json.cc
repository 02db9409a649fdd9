// Machine-readable MOQP pipeline benchmark: times the end-to-end
// Multi-Objective Optimizer (enumerate → predict → Pareto → Algorithm 2)
// over an Example-3.1-scale QEP space, sweeping shard counts 1/2/4/8 for
// both predictor kinds —
//
//   per_plan_sN     CostPredictor: each chunk's plans are materialized and
//                   every candidate runs DREAM's Algorithm 1 (window growth
//                   to the cap) and one Predict;
//   feature_row_sN  BatchCostPredictor: each chunk's feature rows go to one
//                   call that runs Algorithm 1 once and scores every row
//                   through PredictBatch (the same per-row dot as Predict).
//
// Every row records whether its Pareto front and chosen plan match the
// serial per-plan baseline bit for bit (both predictors run the same
// per-row dot on every SIMD tier). Emits BENCH_moqp.json so the perf
// trajectory is tracked across PRs; run via
// `scripts/bench.sh moqp`.

#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <thread>
#include <vector>
#include "bench_env_common.h"

#include "common/random.h"
#include "ires/features.h"
#include "ires/moo_optimizer.h"
#include "regression/dream.h"

namespace midas {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Environment {
  Federation federation;
  Catalog catalog;
};

// Two-cloud federation with a three-table join so the enumerator emits
// join-order × compute-placement × VM-count variants at Example 3.1 scale.
Environment MakeEnvironment(int max_nodes) {
  Environment env;
  SiteConfig a;
  a.name = "cloud-A";
  a.engines = {EngineKind::kHive};
  a.node_type = {ProviderKind::kAmazon, "a1.xlarge", 4, 8.0, 0.0, 0.0197};
  a.max_nodes = max_nodes;
  const SiteId site_a = env.federation.AddSite(a).ValueOrDie();
  SiteConfig b;
  b.name = "cloud-B";
  b.engines = {EngineKind::kPostgres};
  b.node_type = {ProviderKind::kMicrosoft, "B2S", 2, 4.0, 8.0, 0.042};
  b.max_nodes = max_nodes;
  const SiteId site_b = env.federation.AddSite(b).ValueOrDie();
  NetworkLink wan;
  wan.bandwidth_mbps = 200.0;
  wan.egress_price_per_gib = 0.09;
  env.federation.network().SetSymmetricLink(site_a, site_b, wan).CheckOK();

  TableDef t1;
  t1.name = "t1";
  t1.row_count = 500000;
  t1.columns = {{"id", ColumnType::kInt, 8.0, 500000},
                {"pay", ColumnType::kString, 64.0, 500000}};
  env.catalog.AddTable(t1).CheckOK();
  TableDef t2;
  t2.name = "t2";
  t2.row_count = 40000;
  t2.columns = {{"id", ColumnType::kInt, 8.0, 40000},
                {"ref", ColumnType::kInt, 8.0, 4000}};
  env.catalog.AddTable(t2).CheckOK();
  TableDef t3;
  t3.name = "t3";
  t3.row_count = 4000;
  t3.columns = {{"ref", ColumnType::kInt, 8.0, 4000}};
  env.catalog.AddTable(t3).CheckOK();
  env.federation.PlaceTable("t1", site_a, EngineKind::kHive).CheckOK();
  env.federation.PlaceTable("t2", site_b, EngineKind::kPostgres).CheckOK();
  env.federation.PlaceTable("t3", site_a, EngineKind::kHive).CheckOK();
  return env;
}

QueryPlan ThreeTableJoin() {
  return QueryPlan(MakeJoin(MakeJoin(MakeScan("t1"), MakeScan("t2"), "id",
                                     "id"),
                            MakeScan("t3"), "ref", "ref"));
}

// History at the MOQP feature arity (2 per site: data MiB + VM count).
TrainingSet MakeHistory(const Federation& federation, size_t n) {
  const std::vector<std::string> names = FeatureNames(federation);
  TrainingSet set(names, {"seconds", "dollars"});
  Rng rng(2019);
  for (size_t i = 0; i < n; ++i) {
    Vector x(names.size());
    for (size_t j = 0; j < x.size(); ++j) {
      // Alternate data-size-like and node-count-like magnitudes.
      x[j] = (j % 2 == 0) ? rng.Uniform(1, 200) : 1 + rng.Index(48);
    }
    double seconds = 5.0;
    double dollars = 0.01;
    for (size_t j = 0; j < x.size(); ++j) {
      seconds += (j % 2 == 0 ? 0.05 : -0.4) * x[j];
      dollars += (j % 2 == 0 ? 1e-4 : 2e-3) * x[j];
    }
    set.Add(x, {seconds + rng.Gaussian(0, 0.5),
                dollars + rng.Gaussian(0, 0.001)})
        .CheckOK();
  }
  return set;
}

struct ConfigResult {
  std::string name;
  std::string mode;  // "per_plan" or "feature_row"
  size_t shards = 0;
  std::vector<double> rep_seconds;
  size_t candidates_examined = 0;
  size_t rows_costed = 0;
  size_t pareto_size = 0;
  size_t peak_resident = 0;
  bool matches_serial = true;

  double TotalSeconds() const {
    return std::accumulate(rep_seconds.begin(), rep_seconds.end(), 0.0);
  }
};

int Run(const char* out_path) {
  // Open the sink before benchmarking: a bad path should fail in
  // milliseconds, not after the timing runs.
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path);
      return 1;
    }
  }

  Environment env = MakeEnvironment(/*max_nodes=*/32);
  const QueryPlan logical = ThreeTableJoin();
  const TrainingSet history = MakeHistory(env.federation, 256);

  // Algorithm 1 with an unreachable R² target grows the window to the cap
  // on every estimate — the per-QEP estimation cost §3 multiplies by the
  // fleet size. The per-plan predictor pays it per candidate; the
  // feature-row predictor pays it once per chunk. Both are deterministic
  // functions of the same history and score rows with the same dot, so
  // their per-plan costs are bit-identical.
  DreamOptions dream_options;
  dream_options.r2_require = 2.0;
  dream_options.m_max = 256;
  dream_options.engine = DreamEngine::kIncremental;
  const auto per_plan_predictor =
      [&](const QueryPlan& plan) -> StatusOr<Vector> {
    MIDAS_ASSIGN_OR_RETURN(Vector x,
                           ExtractFeatures(env.federation, plan));
    Dream dream(dream_options);
    MIDAS_ASSIGN_OR_RETURN(DreamEstimate estimate,
                           dream.EstimateCostValue(history));
    return estimate.Predict(x);
  };
  const MultiObjectiveOptimizer::BatchCostPredictor feature_row_predictor =
      [&](const Matrix& x, Matrix* costs) -> Status {
    Dream dream(dream_options);
    MIDAS_ASSIGN_OR_RETURN(*costs, dream.PredictCostsBatch(history, x));
    return Status::OK();
  };

  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  EnumeratorOptions enumerator;
  enumerator.node_counts.clear();
  for (int n = 1; n <= 32; ++n) enumerator.node_counts.push_back(n);
  enumerator.max_plans = 200000;

  constexpr int kReps = 3;
  std::vector<ConfigResult> results;
  struct Config {
    std::string name;
    std::string mode;
    size_t shards;
  };
  std::vector<Config> configs;
  for (const char* mode : {"per_plan", "feature_row"}) {
    for (size_t shards : {1, 2, 4, 8}) {
      configs.push_back(
          {std::string(mode) + "_s" + std::to_string(shards), mode, shards});
    }
  }

  // Serial per-plan result, against which every other row is checked.
  std::vector<Vector> baseline_front;
  size_t baseline_chosen = 0;
  std::string baseline_plan;
  for (const Config& config : configs) {
    MoqpOptions options;
    options.enumerator = enumerator;
    options.shards = config.shards;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    ConfigResult r;
    r.name = config.name;
    r.mode = config.mode;
    r.shards = config.shards;
    for (int rep = 0; rep < kReps; ++rep) {
      const double t0 = NowSeconds();
      StatusOr<MoqpResult> result =
          config.mode == "per_plan"
              ? optimizer.Optimize(logical, per_plan_predictor, policy)
              : optimizer.Optimize(logical, feature_row_predictor, policy);
      result.status().CheckOK();
      r.rep_seconds.push_back(NowSeconds() - t0);
      r.candidates_examined = result->candidates_examined;
      r.rows_costed = result->rows_costed;
      r.pareto_size = result->pareto_costs.size();
      r.peak_resident = result->peak_resident_candidates;
      const std::string chosen_plan =
          result->pareto_plans[result->chosen].ToString();
      if (results.empty() && rep == 0) {
        baseline_front = result->pareto_costs;
        baseline_chosen = result->chosen;
        baseline_plan = chosen_plan;
      }
      if (result->pareto_costs != baseline_front ||
          result->chosen != baseline_chosen ||
          chosen_plan != baseline_plan) {
        r.matches_serial = false;
      }
      std::fprintf(stderr,
                   "%-15s rep %d: %7.3f s  %zu candidates, %zu rows "
                   "costed%s\n",
                   config.name.c_str(), rep, r.rep_seconds.back(),
                   result->candidates_examined, result->rows_costed,
                   r.matches_serial ? "" : "  [MISMATCH vs serial]");
    }
    results.push_back(std::move(r));
  }

  const double serial_total = results[0].TotalSeconds();
  std::string json = "{\n";
  json += "  \"benchmark\": \"moqp_batched_pipeline\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  json +=
      "  \"setup\": \"three-table join over a two-cloud federation, VM "
      "counts 1-32 per site (Example 3.1 scale); DREAM window-growth "
      "estimator, per-plan vs feature-row costing across shard counts; " +
      std::to_string(kReps) + " optimizations per config\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"reps\": " + std::to_string(kReps) + ",\n";
  json += "  \"candidates_examined\": " +
          std::to_string(results[0].candidates_examined) + ",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < results.size(); ++i) {
    const ConfigResult& r = results[i];
    const double total = r.TotalSeconds();
    const double plans_per_sec =
        static_cast<double>(r.candidates_examined) * kReps / total;
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"config\": \"%s\", \"mode\": \"%s\", \"shards\": %zu, "
        "\"total_seconds\": %.3f, \"plans_per_sec\": %.0f, "
        "\"speedup_vs_serial\": %.2f, \"rows_costed\": %zu, "
        "\"pareto_size\": %zu, \"peak_resident_candidates\": %zu, "
        "\"matches_serial\": %s}%s\n",
        r.name.c_str(), r.mode.c_str(), r.shards, total, plans_per_sec,
        serial_total / total, r.rows_costed, r.pareto_size, r.peak_resident,
        r.matches_serial ? "true" : "false",
        i + 1 < results.size() ? "," : "");
    json += row;
  }
  json += "  ]\n}\n";

  std::fputs(json.c_str(), out);
  if (out != stdout) std::fclose(out);
  return 0;
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  return midas::Run(argc > 1 ? argv[1] : nullptr);
}

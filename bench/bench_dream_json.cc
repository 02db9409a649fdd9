// Machine-readable DREAM window-growth benchmark. Times Algorithm 1's two
// engines — kBatch (refits every window from scratch with FitOls, the seed
// implementation, kept as the reference) and kIncremental (one QR factor
// per estimate, grown by Givens rotations, fitted by a pivoted QR of that
// factor only where an R² upper bound admits R²_require, plus the returned
// window) — on two series, and emits BENCH_dream.json so the perf
// trajectory can be tracked across PRs. Run via
// `scripts/bench.sh dream`.
//
//  - full_rank: four random features and an unreachable R² requirement,
//    which forces both engines to grow the window all the way to the cap
//    (32..2048) — the worst case for both.
//  - serving_shape: the histories the service really fits. MidasSystem
//    bootstraps Example 2.1 on the paper's two-site federation; for the
//    fixed query each site's scanned MiB is constant, so every window's
//    design matrix has rank 3 of 5. Default DREAM options (R²_require 0.8,
//    M_max = all history) at 50..5,000 observations. Each row records both
//    engines' chosen window and convergence, how many windows kIncremental
//    fitted, and the time of an unpruned scan (the same factor fitted at
//    every window); kBatch stops running once a single estimate exceeds a
//    time budget.
//
// Bootstrapped histories come from randomly chosen plans, so their R² stays
// low and both engines grow the window to the whole history. The serving
// shape therefore also replays query feedback: scopes bootstrapped to 100
// observations then serve RunQuery calls, whose recorded plans let windows
// converge after a few observations, and both engines estimate after every
// query. The serving shape is a correctness gate: the process exits nonzero
// when the engines disagree on the window or on convergence anywhere, or
// when kIncremental differs from the unpruned scan in window, convergence,
// any R² or any coefficient by a single bit. `--quick` keeps only that gate
// — small histories and the feedback replay, over two system seeds, untimed
// budget — for scripts/check.sh to run on the default and force-scalar
// builds; its JSON goes to the build tree.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_env_common.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "linalg/simd.h"
#include "midas/medical.h"
#include "midas/midas.h"
#include "regression/dream.h"
#include "regression/incremental_ols.h"

namespace midas {
namespace {

/// kBatch is not timed at a serving-shape history longer than the first one
/// where a single estimate took more than this.
constexpr double kBatchBudgetSeconds = 2.0;

/// The feedback replay: system seeds, bootstrap size and RunQuery calls.
constexpr uint64_t kFeedbackSeeds[] = {2019, 7211};
constexpr size_t kFeedbackBootstrap = 100;
constexpr size_t kFeedbackQueries = 40;

TrainingSet MakeFullRankHistory(size_t n) {
  TrainingSet set({"x1", "x2", "x3", "x4"}, {"seconds", "dollars"});
  Rng rng(1);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0, 100);
    const double b = rng.Uniform(0, 100);
    const double c = 1 + rng.Index(8);
    const double d = 1 + rng.Index(8);
    set.Add({a, b, c, d}, {1 + 0.1 * a + 0.2 * b + c + rng.Gaussian(0, 1),
                           0.01 * a + rng.Gaussian(0, 0.1) + 2})
        .CheckOK();
  }
  return set;
}

// Nanoseconds per call, adaptively iterated: keep running until the total
// wall time passes min_total so fast paths get stable statistics, but
// never fewer than one and never more than max_iters iterations (the batch
// engine at the longest histories takes seconds per estimate).
template <typename Call>
double NsPerCall(const Call& call, double min_total_sec, size_t max_iters) {
  using clock = std::chrono::steady_clock;
  size_t iters = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  while (iters < max_iters && (iters == 0 || elapsed < min_total_sec)) {
    call();
    ++iters;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  return elapsed * 1e9 / static_cast<double>(iters);
}

double TimeEstimate(const Dream& dream, const TrainingSet& history,
                    double min_total_sec, size_t max_iters) {
  return NsPerCall(
      [&] { dream.EstimateCostValue(history).status().CheckOK(); },
      min_total_sec, max_iters);
}

// Algorithm 1 without the R² bound: the factor kIncremental grows, rows
// added in the same order, FitAll at every window until one converges.
DreamEstimate UnprunedScan(const TrainingSet& history,
                           const DreamOptions& options) {
  const size_t m_min = history.num_features() + 2;
  size_t m_cap = options.m_max == 0 ? history.size() : options.m_max;
  m_cap = std::max(std::min(m_cap, history.size()), m_min);
  const size_t first = history.size() - m_cap;
  IncrementalOls engine(history.num_features(), history.num_metrics());
  for (size_t i = m_cap - m_min; i < m_cap; ++i) {
    const Observation& obs = history.at(first + i);
    engine.Add(obs.features, obs.costs).CheckOK();
  }
  DreamEstimate est;
  for (size_t m = m_min; m <= m_cap; ++m) {
    if (m > m_min) {
      const Observation& obs = history.at(first + m_cap - m);
      engine.Add(obs.features, obs.costs).CheckOK();
    }
    est = DreamEstimate();
    engine.FitAll(&est.models).CheckOK();
    est.window_size = m;
    est.fitted_windows = m - m_min + 1;
    est.converged = true;
    for (const OlsModel& model : est.models) {
      const double r2 = options.use_adjusted_r2 ? model.adjusted_r_squared()
                                                : model.r_squared();
      est.r_squared.push_back(r2);
      if (!(r2 >= options.r2_require)) est.converged = false;
    }
    if (est.converged) break;
  }
  return est;
}

// Bitwise comparison of kIncremental's estimate with the unpruned scan's:
// window, verdict, every R² and every coefficient.
bool MatchesUnpruned(const DreamEstimate& got, const DreamEstimate& want) {
  if (got.window_size != want.window_size ||
      got.converged != want.converged || got.r_squared != want.r_squared ||
      got.models.size() != want.models.size()) {
    return false;
  }
  for (size_t k = 0; k < got.models.size(); ++k) {
    if (got.models[k].coefficients() != want.models[k].coefficients()) {
      return false;
    }
  }
  return true;
}

std::string FullRankSeries() {
  const std::vector<size_t> caps = {32, 128, 512, 2048};
  std::string json;
  for (size_t i = 0; i < caps.size(); ++i) {
    const size_t cap = caps[i];
    const TrainingSet history = MakeFullRankHistory(cap);
    DreamOptions options;
    options.r2_require = 2.0;  // unreachable: grow to the cap
    options.m_max = cap;

    options.engine = DreamEngine::kIncremental;
    const double incremental_ns =
        TimeEstimate(Dream(options), history, 0.5, 1u << 20);
    options.engine = DreamEngine::kBatch;
    const double batch_ns = TimeEstimate(Dream(options), history, 0.5, 25);

    char row[256];
    std::snprintf(row, sizeof(row),
                  "      {\"window_cap\": %zu, \"batch_ns\": %.0f, "
                  "\"incremental_ns\": %.0f, \"speedup\": %.1f}%s\n",
                  cap, batch_ns, incremental_ns, batch_ns / incremental_ns,
                  i + 1 < caps.size() ? "," : "");
    json += row;
    std::fprintf(stderr,
                 "full rank, cap %5zu: batch %12.0f ns  incremental %9.0f ns"
                 "  speedup %.1fx\n",
                 cap, batch_ns, incremental_ns, batch_ns / incremental_ns);
  }
  return json;
}

struct ServingRow {
  uint64_t seed = 0;
  size_t history = 0;
  size_t window = 0;
  bool converged = false;
  size_t fitted_windows = 0;
  double incremental_ns = 0.0;
  double unpruned_ns = 0.0;
  // Unset when kBatch was past its time budget.
  std::optional<double> batch_ns;
  size_t batch_window = 0;
  bool batch_converged = false;
};

std::unique_ptr<MidasSystem> MakeServingSystem(uint64_t seed) {
  Federation federation = Federation::PaperFederation();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = seed;
  return std::make_unique<MidasSystem>(
      std::move(federation), MakeMedicalCatalog().ValueOrDie(), options);
}

const TrainingSet& ScopeHistory(MidasSystem& system, const std::string& scope) {
  const Modelling& modelling = system.modelling();
  return *modelling.history().Get(scope).ValueOrDie();
}

// Grows one Example 2.1 scope through `sizes` and estimates with both
// engines and the unpruned scan at each; appends one row per size. Returns
// false on any disagreement. `quick` times briefly and never skips kBatch.
bool ServingSeries(uint64_t seed, const std::vector<size_t>& sizes,
                   bool quick, std::vector<ServingRow>* rows) {
  const double min_seconds = quick ? 0.02 : 0.2;
  std::unique_ptr<MidasSystem> system = MakeServingSystem(seed);
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  const std::string scope = "example21";

  DreamOptions options = system->options().estimator.dream;
  bool batch_enabled = true;
  bool agree = true;
  size_t have = 0;
  for (size_t size : sizes) {
    system->Bootstrap(scope, query, size - have).CheckOK();
    have = size;
    const TrainingSet& set = ScopeHistory(*system, scope);

    ServingRow row;
    row.seed = seed;
    row.history = size;
    options.engine = DreamEngine::kIncremental;
    const DreamEstimate incremental =
        Dream(options).EstimateCostValue(set).ValueOrDie();
    row.window = incremental.window_size;
    row.converged = incremental.converged;
    row.fitted_windows = incremental.fitted_windows;
    if (!MatchesUnpruned(incremental, UnprunedScan(set, options))) {
      std::fprintf(stderr,
                   "PRUNING MISMATCH: seed %llu history %zu: kIncremental "
                   "differs from the unpruned scan\n",
                   static_cast<unsigned long long>(seed), size);
      agree = false;
    }
    row.incremental_ns =
        TimeEstimate(Dream(options), set, min_seconds, 1u << 20);
    row.unpruned_ns = NsPerCall([&] { UnprunedScan(set, options); },
                                min_seconds, 1u << 20);

    if (batch_enabled) {
      options.engine = DreamEngine::kBatch;
      const auto start = std::chrono::steady_clock::now();
      const DreamEstimate batch =
          Dream(options).EstimateCostValue(set).ValueOrDie();
      const double once = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - start)
                              .count();
      row.batch_window = batch.window_size;
      row.batch_converged = batch.converged;
      row.batch_ns = once >= min_seconds
                         ? once * 1e9
                         : TimeEstimate(Dream(options), set, min_seconds, 25);
      if (row.batch_window != row.window ||
          row.batch_converged != row.converged) {
        std::fprintf(stderr,
                     "ENGINE MISMATCH: seed %llu history %zu: incremental "
                     "window %zu converged %d, batch window %zu converged "
                     "%d\n",
                     static_cast<unsigned long long>(seed), size, row.window,
                     row.converged, row.batch_window, row.batch_converged);
        agree = false;
      }
      if (!quick && once > kBatchBudgetSeconds) batch_enabled = false;
    }
    char batch[32] = "skipped (over budget)";
    if (row.batch_ns) {
      std::snprintf(batch, sizeof(batch), "%.0f ns", *row.batch_ns);
    }
    std::fprintf(stderr,
                 "serving shape, seed %llu, history %5zu: window %5zu%s  "
                 "fitted %zu  incremental %10.0f ns  unpruned %10.0f ns  "
                 "batch %s\n",
                 static_cast<unsigned long long>(seed), size, row.window,
                 row.converged ? " (converged)" : "", row.fitted_windows,
                 row.incremental_ns, row.unpruned_ns, batch);
    rows->push_back(row);
  }
  return agree;
}

struct FeedbackTally {
  size_t checks = 0;
  size_t converged = 0;
  size_t mismatches = 0;          // kBatch vs kIncremental
  size_t pruning_mismatches = 0;  // kIncremental vs the unpruned scan
  size_t fitted_windows = 0;      // summed over the estimates
  size_t scanned_windows = 0;     // L + 2 .. window, summed likewise
};

// Bootstraps one scope to `bootstrap` observations, then serves `queries`
// RunQuery calls on it (policy weights cycling 0.1..0.9) and compares the
// engines' window and convergence, and kIncremental with the unpruned
// scan, on the scope's history after each.
void FeedbackReplay(uint64_t seed, size_t bootstrap, size_t queries,
                    FeedbackTally* tally) {
  std::unique_ptr<MidasSystem> system = MakeServingSystem(seed);
  const QueryPlan query = MakeExample21Query().ValueOrDie();
  const std::string scope = "example21";
  system->Bootstrap(scope, query, bootstrap).CheckOK();
  DreamOptions incremental_options = system->options().estimator.dream;
  incremental_options.engine = DreamEngine::kIncremental;
  DreamOptions batch_options = incremental_options;
  batch_options.engine = DreamEngine::kBatch;
  for (size_t q = 0; q < queries; ++q) {
    const double w = 0.1 * static_cast<double>(1 + q % 9);
    QueryPolicy policy;
    policy.weights = {w, 1.0 - w};
    system->RunQuery(scope, query, policy).status().CheckOK();
    const TrainingSet& set = ScopeHistory(*system, scope);
    const DreamEstimate incremental =
        Dream(incremental_options).EstimateCostValue(set).ValueOrDie();
    const DreamEstimate batch =
        Dream(batch_options).EstimateCostValue(set).ValueOrDie();
    ++tally->checks;
    if (incremental.converged) ++tally->converged;
    tally->fitted_windows += incremental.fitted_windows;
    tally->scanned_windows +=
        incremental.window_size - (set.num_features() + 2) + 1;
    if (!MatchesUnpruned(incremental,
                         UnprunedScan(set, incremental_options))) {
      std::fprintf(stderr,
                   "PRUNING MISMATCH: seed %llu after query %zu: "
                   "kIncremental differs from the unpruned scan\n",
                   static_cast<unsigned long long>(seed), q);
      ++tally->pruning_mismatches;
    }
    if (incremental.window_size != batch.window_size ||
        incremental.converged != batch.converged) {
      std::fprintf(stderr,
                   "ENGINE MISMATCH: seed %llu after query %zu: incremental "
                   "window %zu converged %d, batch window %zu converged %d\n",
                   static_cast<unsigned long long>(seed), q,
                   incremental.window_size, incremental.converged,
                   batch.window_size, batch.converged);
      ++tally->mismatches;
    }
  }
}

std::string ServingRowsJson(const std::vector<ServingRow>& rows) {
  std::string json;
  for (size_t i = 0; i < rows.size(); ++i) {
    const ServingRow& r = rows[i];
    char batch[160] = "\"batch_ns\": null, \"batch_window\": null, "
                      "\"batch_converged\": null, \"speedup\": null";
    if (r.batch_ns) {
      std::snprintf(batch, sizeof(batch),
                    "\"batch_ns\": %.0f, \"batch_window\": %zu, "
                    "\"batch_converged\": %s, \"speedup\": %.1f",
                    *r.batch_ns, r.batch_window,
                    r.batch_converged ? "true" : "false",
                    *r.batch_ns / r.incremental_ns);
    }
    char row[512];
    std::snprintf(row, sizeof(row),
                  "      {\"seed\": %llu, \"history\": %zu, \"window\": %zu, "
                  "\"converged\": %s, \"fitted_windows\": %zu, "
                  "\"incremental_ns\": %.0f, \"unpruned_ns\": %.0f, %s}%s\n",
                  static_cast<unsigned long long>(r.seed), r.history,
                  r.window, r.converged ? "true" : "false", r.fitted_windows,
                  r.incremental_ns, r.unpruned_ns, batch,
                  i + 1 < rows.size() ? "," : "");
    json += row;
  }
  return json;
}

int Run(const char* out_path, bool quick) {
  // Open the sink before benchmarking: a bad path should fail in
  // milliseconds, not after minutes of timing runs.
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path);
      return 1;
    }
  }
  std::vector<ServingRow> serving;
  bool agree = true;
  if (quick) {
    for (uint64_t seed : kFeedbackSeeds) {
      agree = ServingSeries(seed, {50, 100, 150, 200}, true, &serving) &&
              agree;
    }
  } else {
    agree = ServingSeries(2019, {50, 100, 200, 500, 1000, 2000, 5000}, false,
                          &serving);
  }
  FeedbackTally feedback;
  for (uint64_t seed : kFeedbackSeeds) {
    FeedbackReplay(seed, kFeedbackBootstrap, kFeedbackQueries, &feedback);
  }
  std::fprintf(stderr,
               "feedback replay: %zu estimates, %zu converged, %zu engine "
               "mismatches, %zu pruning mismatches, %zu of %zu windows "
               "fitted\n",
               feedback.checks, feedback.converged, feedback.mismatches,
               feedback.pruning_mismatches, feedback.fitted_windows,
               feedback.scanned_windows);
  agree = agree && feedback.mismatches == 0 &&
          feedback.pruning_mismatches == 0;

  std::string json = "{\n";
  json += "  \"benchmark\": \"dream_window_growth\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  json += "  \"mode\": \"" + std::string(quick ? "quick" : "full") + "\",\n";
  json += "  \"simd_tier\": \"" +
          std::string(SimdTierName(simd::ActiveTier())) + "\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"unit\": \"ns_per_estimate\",\n";
  if (!quick) {
    json += "  \"full_rank\": {\n";
    json += "    \"features\": 4,\n";
    json += "    \"metrics\": 2,\n";
    json +=
        "    \"setup\": \"unreachable r2_require forces Algorithm 1 to grow "
        "the window to the cap; both engines see the same history\",\n";
    json += "    \"results\": [\n" + FullRankSeries() + "    ]\n";
    json += "  },\n";
  }
  json += "  \"serving_shape\": {\n";
  json += "    \"features\": 4,\n";
  json += "    \"metrics\": 2,\n";
  json +=
      "    \"setup\": \"MidasSystem::Bootstrap histories of Example 2.1 on "
      "PaperFederation (per-site MiB constant: rank 3 of 5), default DREAM "
      "options (r2_require 0.8, M_max = all history); unpruned_ns times the "
      "incremental factor fitted at every window, the scan before the R² "
      "bound\",\n";
  if (!quick) {
    char budget[96];
    std::snprintf(budget, sizeof(budget),
                  "    \"batch_budget_seconds\": %.1f,\n", kBatchBudgetSeconds);
    json += budget;
  }
  json += "    \"engines_agree\": " + std::string(agree ? "true" : "false") +
          ",\n";
  json += "    \"results\": [\n" + ServingRowsJson(serving) + "    ],\n";
  char replay[512];
  std::snprintf(replay, sizeof(replay),
                "    \"feedback_replay\": {\"seeds\": [%llu, %llu], "
                "\"bootstrap\": %zu, \"queries_per_seed\": %zu, "
                "\"estimates\": %zu, \"converged\": %zu, "
                "\"mismatches\": %zu, \"pruning_mismatches\": %zu, "
                "\"fitted_windows\": %zu, \"scanned_windows\": %zu}\n",
                static_cast<unsigned long long>(kFeedbackSeeds[0]),
                static_cast<unsigned long long>(kFeedbackSeeds[1]),
                kFeedbackBootstrap, kFeedbackQueries, feedback.checks,
                feedback.converged, feedback.mismatches,
                feedback.pruning_mismatches, feedback.fitted_windows,
                feedback.scanned_windows);
  json += replay;
  json += "  }\n}\n";

  std::fputs(json.c_str(), out);
  if (out != stdout) std::fclose(out);
  return agree ? 0 : 1;
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  const char* out_path = nullptr;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (out_path == nullptr) {
      out_path = argv[i];
    } else {
      std::fprintf(stderr, "usage: %s [output.json] [--quick]\n", argv[0]);
      return 2;
    }
  }
  return midas::Run(out_path, quick);
}

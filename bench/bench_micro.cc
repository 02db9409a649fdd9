// Microbenchmarks (google-benchmark) for the building blocks on the MOQP
// hot path: OLS fitting at different window sizes, one full DREAM
// estimation pass, physical-plan enumeration, simulator costing, and one
// NSGA-II generation's worth of evaluations.

#include <benchmark/benchmark.h>

#include "common/random.h"
#include "engine/simulator.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "optimizer/nsga2.h"
#include "query/enumerator.h"
#include "regression/dream.h"
#include "tpch/workload.h"

namespace midas {
namespace {

TrainingSet MakeHistory(size_t n) {
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

void BM_OlsFit(benchmark::State& state) {
  const size_t m = static_cast<size_t>(state.range(0));
  TrainingSet history = MakeHistory(m);
  auto xs = history.RecentFeatures(m).ValueOrDie();
  auto ys = history.RecentCosts(m, 0).ValueOrDie();
  for (auto _ : state) {
    auto model = FitOls(xs, ys);
    benchmark::DoNotOptimize(model);
  }
}
BENCHMARK(BM_OlsFit)->Arg(6)->Arg(12)->Arg(24)->Arg(100)->Arg(400);

void BM_DreamEstimate(benchmark::State& state) {
  const size_t history_size = static_cast<size_t>(state.range(0));
  TrainingSet history = MakeHistory(history_size);
  Dream dream;
  for (auto _ : state) {
    auto estimate = dream.EstimateCostValue(history);
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_DreamEstimate)->Arg(12)->Arg(50)->Arg(200);

// Worst-case window growth: an unreachable R² requirement forces Algorithm 1
// all the way to the cap, which is where the batch refit-from-scratch loop
// (O(Σ_m m·L²) per metric) and the incremental QR engine (O(L³ + N·L²)
// per window) diverge the most. Same history, same windows, same models.
DreamOptions FullGrowthOptions(size_t cap, DreamEngine engine) {
  DreamOptions options;
  options.r2_require = 2.0;  // unreachable: grow to the cap
  options.m_max = cap;
  options.engine = engine;
  return options;
}

void BM_DreamBatch(benchmark::State& state) {
  const size_t cap = static_cast<size_t>(state.range(0));
  TrainingSet history = MakeHistory(cap);
  Dream dream(FullGrowthOptions(cap, DreamEngine::kBatch));
  for (auto _ : state) {
    auto estimate = dream.EstimateCostValue(history);
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_DreamBatch)->Arg(32)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

void BM_DreamIncremental(benchmark::State& state) {
  const size_t cap = static_cast<size_t>(state.range(0));
  TrainingSet history = MakeHistory(cap);
  Dream dream(FullGrowthOptions(cap, DreamEngine::kIncremental));
  for (auto _ : state) {
    auto estimate = dream.EstimateCostValue(history);
    benchmark::DoNotOptimize(estimate);
  }
}
BENCHMARK(BM_DreamIncremental)->Arg(32)->Arg(128)->Arg(512)->Arg(2048)
    ->Unit(benchmark::kMicrosecond);

// --- GEMM kernels ----------------------------------------------------------
//
// Square n×n·n×n products comparing the textbook i-j-k reference against
// the cache-blocked i-k-j kernel behind Multiply/PredictBatch. At n = 64
// everything fits in L1 and the two are close; by n = 1024 the naive loop's
// strided B reads thrash cache while the blocked kernel keeps its panels
// resident.

Matrix RandomSquare(size_t n, uint64_t seed) {
  Matrix m(n, n);
  Rng rng(seed);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) m(r, c) = rng.Uniform(-1, 1);
  }
  return m;
}

void BM_GemmNaive(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomSquare(n, 51);
  const Matrix b = RandomSquare(n, 52);
  Matrix out;
  for (auto _ : state) {
    MultiplyReferenceInto(a, b, &out).CheckOK();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmNaive)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmBlocked(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomSquare(n, 51);
  const Matrix b = RandomSquare(n, 52);
  Matrix out;
  for (auto _ : state) {
    a.MultiplyInto(b, &out).CheckOK();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmBlocked)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

void BM_GemmBlockedScalar(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const Matrix a = RandomSquare(n, 51);
  const Matrix b = RandomSquare(n, 52);
  Matrix out;
  simd::SetForceScalar(true);
  for (auto _ : state) {
    a.MultiplyInto(b, &out).CheckOK();
    benchmark::DoNotOptimize(out);
  }
  simd::SetForceScalar(false);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n * n *
                          n);
}
BENCHMARK(BM_GemmBlockedScalar)->Arg(64)->Arg(256)->Arg(1024)
    ->Unit(benchmark::kMicrosecond);

// --- SIMD kernel tiers -----------------------------------------------------
//
// Each pair runs the same kernel with the dispatched vector tier and with
// the scalar tier pinned (simd::SetForceScalar), so one report shows the
// per-kernel speedup of the active ISA. BM_Gemm{Blocked,BlockedScalar}
// above are the GEMM pair.

void DotBody(benchmark::State& state, bool scalar) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(61);
  Vector a(n), b(n);
  for (size_t i = 0; i < n; ++i) {
    a[i] = rng.Uniform(-1, 1);
    b[i] = rng.Uniform(-1, 1);
  }
  simd::SetForceScalar(scalar);
  for (auto _ : state) {
    double d = Dot(a, b);
    benchmark::DoNotOptimize(d);
  }
  simd::SetForceScalar(false);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * n);
}

void BM_DotSimd(benchmark::State& state) { DotBody(state, false); }
BENCHMARK(BM_DotSimd)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DotScalar(benchmark::State& state) { DotBody(state, true); }
BENCHMARK(BM_DotScalar)->Arg(64)->Arg(1024)->Arg(16384);

void GramBody(benchmark::State& state, bool scalar) {
  const size_t rows = static_cast<size_t>(state.range(0));
  const size_t cols = static_cast<size_t>(state.range(1));
  Rng rng(62);
  Matrix x(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) x(r, c) = rng.Uniform(-1, 1);
  }
  simd::SetForceScalar(scalar);
  for (auto _ : state) {
    Matrix g = x.Gram();
    benchmark::DoNotOptimize(g);
  }
  simd::SetForceScalar(false);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * rows *
                          cols * cols);
}

void BM_GramSimd(benchmark::State& state) { GramBody(state, false); }
BENCHMARK(BM_GramSimd)->Args({256, 16})->Args({1024, 64});

void BM_GramScalar(benchmark::State& state) { GramBody(state, true); }
BENCHMARK(BM_GramScalar)->Args({256, 16})->Args({1024, 64});

void BM_DreamPredict(benchmark::State& state) {
  TrainingSet history = MakeHistory(50);
  Dream dream;
  auto estimate = dream.EstimateCostValue(history).ValueOrDie();
  const Vector x = {10, 20, 2, 4};
  for (auto _ : state) {
    auto costs = estimate.Predict(x);
    benchmark::DoNotOptimize(costs);
  }
}
BENCHMARK(BM_DreamPredict);

struct QepEnvironment {
  Federation federation;
  tpch::Workload workload;

  QepEnvironment() : workload([] {
                       tpch::WorkloadOptions options;
                       options.scale_factor = 0.1;
                       return options;
                     }()) {
    const InstanceCatalog catalog = InstanceCatalog::PaperTable1();
    SiteConfig a;
    a.name = "A";
    a.provider = ProviderKind::kAmazon;
    a.engines = {EngineKind::kHive};
    a.node_type = catalog.Find("a1.xlarge").ValueOrDie();
    a.max_nodes = 8;
    federation.AddSite(a).ValueOrDie();
    SiteConfig b;
    b.name = "B";
    b.provider = ProviderKind::kMicrosoft;
    b.engines = {EngineKind::kPostgres};
    b.node_type = catalog.Find("B2S").ValueOrDie();
    b.max_nodes = 8;
    federation.AddSite(b).ValueOrDie();
    federation.PlaceTable("orders", 1, EngineKind::kPostgres).CheckOK();
    federation.PlaceTable("lineitem", 0, EngineKind::kHive).CheckOK();
  }
};

void BM_EnumeratePhysicalPlans(benchmark::State& state) {
  QepEnvironment env;
  PlanEnumerator enumerator(&env.federation, &env.workload.catalog());
  const QueryPlan q12 = tpch::MakeQuery(12).ValueOrDie();
  for (auto _ : state) {
    auto plans = enumerator.EnumeratePhysical(q12);
    benchmark::DoNotOptimize(plans);
  }
}
BENCHMARK(BM_EnumeratePhysicalPlans);

void BM_SimulatorExpectedCost(benchmark::State& state) {
  QepEnvironment env;
  SimulatorOptions options;
  options.stochastic = false;
  ExecutionSimulator sim(&env.federation, &env.workload.catalog(), options);
  PlanEnumerator enumerator(&env.federation, &env.workload.catalog());
  auto plans =
      enumerator.EnumeratePhysical(tpch::MakeQuery(12).ValueOrDie())
          .ValueOrDie();
  for (auto _ : state) {
    auto m = sim.ExpectedCostAt(plans[0], 0);
    benchmark::DoNotOptimize(m);
  }
}
BENCHMARK(BM_SimulatorExpectedCost);

void BM_Nsga2Schaffer(benchmark::State& state) {
  Nsga2Options options;
  options.population_size = 60;
  options.generations = static_cast<size_t>(state.range(0));
  Nsga2 nsga2(options);
  Schaffer problem;
  for (auto _ : state) {
    auto result = nsga2.Optimize(problem);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_Nsga2Schaffer)->Arg(10)->Arg(50);

}  // namespace
}  // namespace midas

BENCHMARK_MAIN();

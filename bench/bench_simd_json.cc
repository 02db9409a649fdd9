// Machine-readable SIMD kernel benchmark: times the hot kernels behind
// the GEMM/prediction stack (Dot, Gram, blocked GEMM, DreamEstimate batch
// prediction) twice — once with the runtime-dispatched vector tier and
// once with the scalar tier pinned via simd::SetForceScalar — and emits
// BENCH_simd.json so the per-kernel speedup of the active ISA is tracked
// across PRs. The dispatched tier name and hardware_concurrency are
// recorded alongside the rows: on a force-scalar build (or a host with no
// vector tier) both columns run the same scalar kernels and the speedup
// column reads ~1.0 by construction. Run via
// `scripts/bench.sh simd`.

#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench_env_common.h"
#include "common/cpu_features.h"
#include "common/random.h"
#include "linalg/matrix.h"
#include "linalg/simd.h"
#include "regression/dream.h"

namespace midas {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Nanoseconds per call, adaptively iterated: keep running until the total
// wall time passes min_total so the fast kernels get stable statistics.
template <typename Fn>
double TimeNs(const Fn& fn, double min_total = 0.2) {
  fn();  // warm up (page in buffers, settle dispatch)
  size_t iters = 1;
  for (;;) {
    const double start = NowSeconds();
    for (size_t i = 0; i < iters; ++i) fn();
    const double elapsed = NowSeconds() - start;
    if (elapsed >= min_total || iters >= (size_t{1} << 30)) {
      return elapsed * 1e9 / static_cast<double>(iters);
    }
    const double target = elapsed > 0.0 ? min_total / elapsed * 1.25 : 2.0;
    iters = static_cast<size_t>(static_cast<double>(iters) * target) + 1;
  }
}

struct KernelRow {
  std::string kernel;
  std::string size;
  double scalar_ns = 0.0;
  double simd_ns = 0.0;
};

// Times fn under the pinned scalar tier and under the dispatched tier.
template <typename Fn>
KernelRow Measure(std::string kernel, std::string size, const Fn& fn) {
  KernelRow row;
  row.kernel = std::move(kernel);
  row.size = std::move(size);
  simd::SetForceScalar(true);
  row.scalar_ns = TimeNs(fn);
  simd::SetForceScalar(false);
  row.simd_ns = TimeNs(fn);
  return row;
}

Matrix RandomMatrix(size_t rows, size_t cols, uint64_t seed) {
  Matrix m(rows, cols);
  Rng rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) m(r, c) = rng.Uniform(-1, 1);
  }
  return m;
}

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

int Run(const char* out_path) {
  std::vector<KernelRow> rows;

  {
    const size_t n = 16384;
    Rng rng(7);
    Vector a(n), b(n);
    for (size_t i = 0; i < n; ++i) {
      a[i] = rng.Uniform(-1, 1);
      b[i] = rng.Uniform(-1, 1);
    }
    rows.push_back(Measure("dot", "n=16384", [&]() {
      double d = Dot(a, b);
      asm volatile("" : : "g"(d) : "memory");
    }));
  }

  {
    const Matrix x = RandomMatrix(1024, 64, 11);
    rows.push_back(Measure("gram", "1024x64", [&]() {
      Matrix g = x.Gram();
      asm volatile("" : : "g"(g.RowData(0)) : "memory");
    }));
  }

  {
    const Matrix a = RandomMatrix(256, 256, 21);
    const Matrix b = RandomMatrix(256, 256, 22);
    Matrix out;
    rows.push_back(Measure("gemm", "256x256x256", [&]() {
      a.MultiplyInto(b, &out).CheckOK();
      asm volatile("" : : "g"(out.RowData(0)) : "memory");
    }));
  }

  {
    TrainingSet history = MakeHistory(64);
    Dream dream;
    DreamEstimate estimate = dream.EstimateCostValue(history).ValueOrDie();
    const Matrix x = RandomMatrix(4096, 4, 31);
    rows.push_back(Measure("dream_predict_batch", "4096x4 -> 2 metrics",
                           [&]() {
                             Matrix out = estimate.PredictBatch(x).ValueOrDie();
                             asm volatile("" : : "g"(out.RowData(0))
                                          : "memory");
                           }));
  }

  std::string json = "{\n";
  json += "  \"benchmark\": \"simd_kernel_dispatch\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  json += "  \"simd_tier\": \"" +
          std::string(SimdTierName(simd::ActiveTier())) + "\",\n";
  json += "  \"hardware_concurrency\": " +
          std::to_string(std::thread::hardware_concurrency()) + ",\n";
  json += "  \"unit\": \"ns_per_call\",\n";
  json += "  \"results\": [\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const KernelRow& r = rows[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "    {\"kernel\": \"%s\", \"size\": \"%s\", "
                  "\"scalar_ns\": %.1f, \"simd_ns\": %.1f, "
                  "\"speedup\": %.2f}%s\n",
                  r.kernel.c_str(), r.size.c_str(), r.scalar_ns, r.simd_ns,
                  r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0,
                  i + 1 < rows.size() ? "," : "");
    json += buf;
    std::printf("%-20s %-22s scalar %10.1f ns   simd %10.1f ns   x%.2f\n",
                r.kernel.c_str(), r.size.c_str(), r.scalar_ns, r.simd_ns,
                r.simd_ns > 0.0 ? r.scalar_ns / r.simd_ns : 0.0);
  }
  json += "  ]\n}\n";

  std::FILE* f = std::fopen(out_path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", out_path);
    return 1;
  }
  std::fwrite(json.data(), 1, json.size(), f);
  std::fclose(f);
  return 0;
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: %s <output.json>\n", argv[0]);
    return 1;
  }
  std::printf("dispatched SIMD tier: %s\n",
              midas::SimdTierName(midas::simd::ActiveTier()));
  return midas::Run(argv[1]);
}

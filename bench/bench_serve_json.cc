// Machine-readable serving benchmark: closed-loop multi-tenant load
// against the QueryService (bounded admission queue, round-robin lanes,
// snapshot-pinned executor slots, serialized feedback path) at 1/8/64
// tenants, against the single-threaded serial RunQuery baseline. Each
// tenant is one closed-loop submitter: submit -> wait -> repeat, so
// per-tenant concurrency is 1 and the offered load scales with the
// tenant count. Reports sustained queries/sec plus p50/p95/p99 service
// latency (and p50 queue wait) from the service's streaming
// LatencyRecorders. Emits BENCH_serve.json; run via
// `scripts/bench.sh serve`.
//
// The submitters run at tenant_inflight_cap = 1, the tightest cap a
// closed-loop client fits: a resubmission right after get() must find the
// tenant's lane already free. The bench exits nonzero when any closed-loop
// run records a rejection, which makes its --quick run a gate on that.
//
// Reading the numbers: the 1-tenant row is the apples-to-apples
// overhead check against the serial baseline (same tenant, same history
// growth) and should sit at ~1x. The 8/64-tenant rows can exceed serial
// even on a single-core host — closed-loop tenants each accrue 1/N of
// the feedback, so per-tenant DREAM windows stay shorter and estimates
// cheaper, while the serial baseline piles every observation into one
// scope. hardware_concurrency and slots are recorded so single-core
// rows are not misread as scaling results; with real cores the slots
// add genuine optimization overlap on top.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <thread>
#include <vector>
#include "bench_env_common.h"

#include "midas/medical.h"
#include "serve/query_service.h"

namespace midas {
namespace {

struct BenchConfig {
  double run_seconds = 1.0;
  size_t bootstrap_runs = 16;
  size_t tenant_inflight_cap = 1;
  std::vector<size_t> tenant_counts = {1, 8, 64};
};

std::string TenantName(size_t t) { return "t" + std::to_string(t); }

QueryPolicy PolicyFor(uint64_t k) {
  const double corners[3] = {0.5, 0.7, 0.3};
  QueryPolicy policy;
  const double w = corners[k % 3];
  policy.weights = {w, 1.0 - w};
  return policy;
}

MidasSystem MakeSystem() {
  Federation federation = Federation::PaperFederation();
  Catalog catalog = MakeMedicalCatalog(/*scale=*/0.05).ValueOrDie();
  PlaceMedicalTables(&federation).CheckOK();
  MidasOptions options;
  options.seed = 2019;
  return MidasSystem(std::move(federation), std::move(catalog), options);
}

void Bootstrap(MidasSystem* system, const QueryPlan& query, size_t tenants,
               size_t runs) {
  for (size_t t = 0; t < tenants; ++t) {
    system->Bootstrap(TenantName(t), query, runs).CheckOK();
  }
}

double QuantileMs(const LatencyRecorder& recorder, double q) {
  auto v = recorder.ValueAtQuantile(q);
  return v.ok() ? *v / 1e6 : 0.0;
}

struct RunResult {
  double queries_per_sec = 0.0;
  uint64_t completed = 0;
  double p50_ms = 0.0;
  double p95_ms = 0.0;
  double p99_ms = 0.0;
  double queue_p50_ms = 0.0;
  uint64_t rejected = 0;
};

/// Baseline: the pre-service usage pattern — one thread calling
/// RunQuery in a closed loop (optimize, execute, record, repeat).
RunResult SerialBaseline(const BenchConfig& config) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  Bootstrap(&system, query, 1, config.bootstrap_runs);

  LatencyRecorder latency;
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  double elapsed = 0.0;
  uint64_t completed = 0;
  while (elapsed < config.run_seconds) {
    const auto before = clock::now();
    system.RunQuery(TenantName(0), query, PolicyFor(completed))
        .status()
        .CheckOK();
    const auto after = clock::now();
    latency.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(after - before)
            .count()));
    ++completed;
    elapsed = std::chrono::duration<double>(after - start).count();
  }
  RunResult result;
  result.completed = completed;
  result.queries_per_sec = static_cast<double>(completed) / elapsed;
  result.p50_ms = QuantileMs(latency, 0.5);
  result.p95_ms = QuantileMs(latency, 0.95);
  result.p99_ms = QuantileMs(latency, 0.99);
  return result;
}

/// Closed-loop service run: `tenants` submitter threads, each submitting
/// its own tenant's next request as soon as the previous one completes.
RunResult ServiceRun(const BenchConfig& config, size_t tenants,
                     size_t slots) {
  MidasSystem system = MakeSystem();
  QueryPlan query = MakeExample21Query().ValueOrDie();
  Bootstrap(&system, query, tenants, config.bootstrap_runs);

  ServeOptions options;
  options.slots = slots;
  options.queue_capacity = 2 * tenants + 8;
  options.tenant_inflight_cap = config.tenant_inflight_cap;
  QueryService service(&system, options);

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> completed{0};
  std::atomic<uint64_t> rejected{0};
  std::vector<std::thread> submitters;
  submitters.reserve(tenants);
  using clock = std::chrono::steady_clock;
  const auto start = clock::now();
  for (size_t t = 0; t < tenants; ++t) {
    submitters.emplace_back([&, t] {
      const std::string tenant = TenantName(t);
      uint64_t k = t;
      while (!stop.load(std::memory_order_acquire)) {
        auto submitted =
            service.Submit(tenant, QueryRequest{tenant, query, PolicyFor(k)});
        if (!submitted.ok()) {
          // A closed-loop submitter has nothing else in flight, so any
          // rejection is a fault; the run fails on it.
          rejected.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        submitted->get().status().CheckOK();
        completed.fetch_add(1, std::memory_order_relaxed);
        ++k;
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(config.run_seconds));
  stop.store(true, std::memory_order_release);
  for (std::thread& s : submitters) s.join();
  const double elapsed =
      std::chrono::duration<double>(clock::now() - start).count();
  service.Drain();

  const ServeStats stats = service.stats();
  RunResult result;
  result.completed = completed.load();
  result.queries_per_sec = static_cast<double>(result.completed) / elapsed;
  result.p50_ms = QuantileMs(stats.service_latency, 0.5);
  result.p95_ms = QuantileMs(stats.service_latency, 0.95);
  result.p99_ms = QuantileMs(stats.service_latency, 0.99);
  result.queue_p50_ms = QuantileMs(stats.queue_latency, 0.5);
  result.rejected = rejected.load();  // every failed Submit, once
  return result;
}

int Run(int argc, char** argv) {
  BenchConfig config;
  std::vector<std::FILE*> outs;
  bool quick = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
      continue;
    }
    std::FILE* f = std::fopen(argv[i], "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", argv[i]);
      return 1;
    }
    outs.push_back(f);
  }
  if (outs.empty()) outs.push_back(stdout);
  if (quick) {
    // CI smoke: the point is that the service sustains closed-loop
    // multi-tenant load at all, not the measurement.
    config.run_seconds = 0.2;
    config.tenant_counts = {1, 8};
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  const size_t slots =
      hardware == 0 ? 1 : (hardware > 8 ? size_t{8} : size_t{hardware});

  const RunResult baseline = SerialBaseline(config);
  std::fprintf(stderr,
               "serial baseline: %8.1f queries/sec  p50 %.2fms p99 %.2fms\n",
               baseline.queries_per_sec, baseline.p50_ms, baseline.p99_ms);

  std::string json = "{\n";
  json += "  \"benchmark\": \"serve_multi_tenant\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  char header[512];
  std::snprintf(
      header, sizeof(header),
      "  \"hardware_concurrency\": %u,\n"
      "  \"slots\": %zu,\n"
      "  \"tenant_inflight_cap\": %zu,\n"
      "  \"bootstrap_runs\": %zu,\n"
      "  \"run_seconds\": %.2f,\n"
      "  \"quick\": %s,\n"
      "  \"unit\": \"queries_per_sec\",\n"
      "  \"serial_baseline\": {\"queries_per_sec\": %.1f, "
      "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f},\n",
      hardware, slots, config.tenant_inflight_cap, config.bootstrap_runs,
      config.run_seconds, quick ? "true" : "false", baseline.queries_per_sec,
      baseline.p50_ms, baseline.p95_ms, baseline.p99_ms);
  json += header;
  json += "  \"results\": [\n";
  uint64_t rejected = 0;
  for (size_t i = 0; i < config.tenant_counts.size(); ++i) {
    const size_t tenants = config.tenant_counts[i];
    const RunResult r = ServiceRun(config, tenants, slots);
    rejected += r.rejected;
    char row[512];
    std::snprintf(
        row, sizeof(row),
        "    {\"tenants\": %zu, \"queries_per_sec\": %.1f, "
        "\"vs_serial_baseline\": %.2f, \"completed\": %llu, "
        "\"p50_ms\": %.3f, \"p95_ms\": %.3f, \"p99_ms\": %.3f, "
        "\"queue_p50_ms\": %.3f, \"rejected\": %llu}%s\n",
        tenants, r.queries_per_sec,
        r.queries_per_sec / baseline.queries_per_sec,
        static_cast<unsigned long long>(r.completed), r.p50_ms, r.p95_ms,
        r.p99_ms, r.queue_p50_ms,
        static_cast<unsigned long long>(r.rejected),
        i + 1 < config.tenant_counts.size() ? "," : "");
    json += row;
    std::fprintf(stderr,
                 "%3zu tenants: %8.1f queries/sec (%.2fx serial)  "
                 "p50 %.2fms p95 %.2fms p99 %.2fms  queue p50 %.2fms\n",
                 tenants, r.queries_per_sec,
                 r.queries_per_sec / baseline.queries_per_sec, r.p50_ms,
                 r.p95_ms, r.p99_ms, r.queue_p50_ms);
  }
  json += "  ]\n}\n";

  for (std::FILE* out : outs) {
    std::fputs(json.c_str(), out);
    if (out != stdout) std::fclose(out);
  }
  if (rejected != 0) {
    std::fprintf(stderr,
                 "FAIL: closed-loop submitters were rejected %llu times at "
                 "tenant_inflight_cap %zu\n",
                 static_cast<unsigned long long>(rejected),
                 config.tenant_inflight_cap);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace midas

int main(int argc, char** argv) { return midas::Run(argc, argv); }

// Machine-readable snapshot benchmark. The read path: prediction
// throughput when readers pin immutable EstimatorSnapshots while a live
// writer keeps publishing feedback epochs, at 1/4/16 reader threads,
// against a serial baseline (no writer, one pinned snapshot).
// The write path: p50/p99 of a one-observation RecordBatch against a
// publisher holding 16/512/4,096 scopes, alone and beside 3 threads that
// keep pinning snapshots — publication should cost the same at every
// scope count. Emits BENCH_snapshot.json; run via
// `scripts/bench.sh snapshot`.
//
// Readers re-pin every kPinEvery predictions — the per-optimization
// pinning pattern RunQuery uses — so the numbers include the Acquire cost
// and the refit a fresh epoch forces, not just warm memo hits. On a
// single-core container the reader counts measure oversubscription safety
// rather than parallel speedup; hardware_concurrency is recorded so
// consumers can tell the regimes apart.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>
#include "bench_env_common.h"

#include "common/random.h"
#include "common/statistics.h"
#include "ires/modelling.h"

namespace midas {
namespace {

constexpr size_t kSeedObservations = 256;
constexpr size_t kPinEvery = 64;
constexpr double kRunSeconds = 0.4;

void SeedHistory(Modelling* modelling, size_t n, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < n; ++i) {
    const double a = rng.Uniform(0, 100);
    const double b = rng.Uniform(0, 100);
    const double c = 1 + rng.Index(8);
    const double d = 1 + rng.Index(8);
    Observation obs;
    obs.timestamp = static_cast<int64_t>(i);
    obs.features = {a, b, c, d};
    obs.costs = {1 + 0.1 * a + 0.2 * b + c + rng.Gaussian(0, 1),
                 2 + 0.01 * a + rng.Gaussian(0, 0.1)};
    modelling->Record("q", std::move(obs)).CheckOK();
  }
}

Vector Probe(Rng* rng) {
  return {rng->Uniform(0, 100), rng->Uniform(0, 100),
          static_cast<double>(1 + rng->Index(8)),
          static_cast<double>(1 + rng->Index(8))};
}

/// Serial baseline: one thread, no writer, every Predict against one
/// snapshot pinned up front — the memoised fit is never invalidated, so
/// this is the ceiling a reader reaches without epoch churn.
double SerialBaseline() {
  Modelling modelling({"x1", "x2", "x3", "x4"}, {"seconds", "dollars"});
  SeedHistory(&modelling, kSeedObservations, 1);
  const EstimatorConfig config = EstimatorConfig::DreamDefault();
  const auto snapshot = modelling.Snapshot();
  Rng rng(2);
  using clock = std::chrono::steady_clock;
  size_t predictions = 0;
  const auto start = clock::now();
  double elapsed = 0.0;
  while (elapsed < kRunSeconds) {
    modelling.Predict(*snapshot, "q", Probe(&rng), config).status().CheckOK();
    ++predictions;
    elapsed = std::chrono::duration<double>(clock::now() - start).count();
  }
  return static_cast<double>(predictions) / elapsed;
}

struct ReaderRunResult {
  double predictions_per_sec = 0.0;
  uint64_t epochs_advanced = 0;
};

/// Concurrent run: `n_readers` threads pin a snapshot per kPinEvery
/// predictions while one writer keeps recording feedback (publishing an
/// epoch per observation, which is what invalidates the scope's memo).
ReaderRunResult ConcurrentReaders(int n_readers) {
  Modelling modelling({"x1", "x2", "x3", "x4"}, {"seconds", "dollars"});
  SeedHistory(&modelling, kSeedObservations, 1);
  const EstimatorConfig config = EstimatorConfig::DreamDefault();
  const uint64_t start_epoch = modelling.publisher().epoch();

  std::atomic<bool> stop{false};
  std::atomic<uint64_t> predictions{0};

  std::thread writer([&modelling, &stop] {
    Rng rng(3);
    int64_t t = static_cast<int64_t>(kSeedObservations);
    while (!stop.load(std::memory_order_acquire)) {
      Observation obs;
      obs.timestamp = t++;
      obs.features = {rng.Uniform(0, 100), rng.Uniform(0, 100), 4.0, 4.0};
      obs.costs = {10.0 + rng.Gaussian(0, 1), 2.0};
      modelling.Record("q", std::move(obs)).CheckOK();
      // A paced feedback stream (executions are slow relative to
      // predictions); unthrottled, the writer would just serialize on
      // the publisher mutex and starve single-core readers.
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  std::vector<std::thread> readers;
  readers.reserve(n_readers);
  for (int r = 0; r < n_readers; ++r) {
    readers.emplace_back([&, r] {
      Rng rng(100 + static_cast<uint64_t>(r));
      uint64_t local = 0;
      while (!stop.load(std::memory_order_acquire)) {
        auto snapshot = modelling.Snapshot();
        for (size_t i = 0; i < kPinEvery; ++i) {
          modelling.Predict(*snapshot, "q", Probe(&rng), config)
              .status()
              .CheckOK();
          ++local;
        }
      }
      predictions.fetch_add(local, std::memory_order_relaxed);
    });
  }

  std::this_thread::sleep_for(
      std::chrono::milliseconds(static_cast<int>(kRunSeconds * 1000)));
  stop.store(true, std::memory_order_release);
  writer.join();
  for (std::thread& t : readers) t.join();

  ReaderRunResult result;
  result.predictions_per_sec =
      static_cast<double>(predictions.load()) / kRunSeconds;
  result.epochs_advanced = modelling.publisher().epoch() - start_epoch;
  return result;
}

struct PublishCost {
  double p50_us = 0.0;
  double p99_us = 0.0;
};

constexpr size_t kPublishSamples = 2000;

/// Times kPublishSamples one-observation RecordBatch calls, each to the
/// next scope of a fixed stride over `scopes` seeded scopes, while
/// `pinners` threads repeatedly pin a snapshot, hold it ~50 µs and
/// release it, as QueryService slots pin one per query.
PublishCost MeasurePublish(size_t scopes, int pinners) {
  SnapshotPublisher publisher({"x1", "x2", "x3", "x4"},
                              {"seconds", "dollars"});
  Rng rng(4);
  auto observation = [&rng](int64_t t) {
    Observation obs;
    obs.timestamp = t;
    obs.features = {rng.Uniform(0, 100), rng.Uniform(0, 100), 4.0, 4.0};
    obs.costs = {10.0 + rng.Gaussian(0, 1), 2.0};
    return obs;
  };
  std::vector<SnapshotPublisher::ScopedObservation> seed;
  for (size_t s = 0; s < scopes; ++s) {
    seed.push_back({"tenant-" + std::to_string(s), observation(0)});
  }
  publisher.RecordBatch(std::move(seed)).CheckOK();

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int p = 0; p < pinners; ++p) {
    threads.emplace_back([&publisher, &stop] {
      while (!stop.load(std::memory_order_acquire)) {
        auto pinned = publisher.Acquire();
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    });
  }
  LatencyRecorder latency;
  for (size_t i = 0; i < kPublishSamples; ++i) {
    std::vector<SnapshotPublisher::ScopedObservation> batch;
    batch.push_back({"tenant-" + std::to_string(i * 7919 % scopes),
                     observation(static_cast<int64_t>(i) + 1)});
    const auto start = std::chrono::steady_clock::now();
    publisher.RecordBatch(std::move(batch)).CheckOK();
    latency.Record(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
  }
  stop.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  return {latency.ValueAtQuantile(0.5).ValueOrDie() / 1e3,
          latency.ValueAtQuantile(0.99).ValueOrDie() / 1e3};
}

int Run(const char* out_path) {
  std::FILE* out = stdout;
  if (out_path != nullptr) {
    out = std::fopen(out_path, "w");
    if (out == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n", out_path);
      return 1;
    }
  }

  const double baseline = SerialBaseline();
  std::fprintf(stderr, "serial baseline:      %12.0f predictions/sec\n",
               baseline);

  const std::vector<int> reader_counts = {1, 4, 16};
  std::string json = "{\n";
  json += "  \"benchmark\": \"snapshot_reader_scaling\",\n";
  json += "  \"git_commit\": \"" + GitCommitOrUnknown() + "\",\n";
  char header[512];
  std::snprintf(header, sizeof(header),
                "  \"hardware_concurrency\": %u,\n"
                "  \"features\": 4,\n"
                "  \"metrics\": 2,\n"
                "  \"seed_observations\": %zu,\n"
                "  \"pin_every\": %zu,\n"
                "  \"estimator\": \"DREAM\",\n"
                "  \"unit\": \"predictions_per_sec\",\n"
                "  \"serial_baseline\": %.0f,\n",
                std::thread::hardware_concurrency(), kSeedObservations,
                kPinEvery, baseline);
  json += header;
  json += "  \"results\": [\n";
  for (size_t i = 0; i < reader_counts.size(); ++i) {
    const int readers = reader_counts[i];
    const ReaderRunResult r = ConcurrentReaders(readers);
    char row[256];
    std::snprintf(row, sizeof(row),
                  "    {\"readers\": %d, \"predictions_per_sec\": %.0f, "
                  "\"vs_serial_baseline\": %.2f, "
                  "\"writer_epochs_advanced\": %llu}%s\n",
                  readers, r.predictions_per_sec,
                  r.predictions_per_sec / baseline,
                  static_cast<unsigned long long>(r.epochs_advanced),
                  i + 1 < reader_counts.size() ? "," : "");
    json += row;
    std::fprintf(stderr,
                 "%2d readers + live writer: %12.0f predictions/sec "
                 "(%.2fx serial), %llu epochs advanced\n",
                 readers, r.predictions_per_sec,
                 r.predictions_per_sec / baseline,
                 static_cast<unsigned long long>(r.epochs_advanced));
  }
  json += "  ],\n";

  const std::vector<size_t> scope_counts = {16, 512, 4096};
  const std::vector<int> pinner_counts = {0, 3};
  json += "  \"publish_sweep\": [\n";
  for (size_t i = 0; i < scope_counts.size(); ++i) {
    for (size_t j = 0; j < pinner_counts.size(); ++j) {
      const PublishCost cost =
          MeasurePublish(scope_counts[i], pinner_counts[j]);
      const bool last =
          i + 1 == scope_counts.size() && j + 1 == pinner_counts.size();
      char row[256];
      std::snprintf(row, sizeof(row),
                    "    {\"scopes\": %zu, \"pinned_readers\": %d, "
                    "\"record_batch_p50_us\": %.2f, "
                    "\"record_batch_p99_us\": %.2f}%s\n",
                    scope_counts[i], pinner_counts[j], cost.p50_us,
                    cost.p99_us, last ? "" : ",");
      json += row;
      std::fprintf(stderr,
                   "publish, %4zu scopes, %d pinned readers: p50 %8.2f us, "
                   "p99 %8.2f us\n",
                   scope_counts[i], pinner_counts[j], cost.p50_us,
                   cost.p99_us);
    }
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

// Readers pinning estimator snapshots while writers advance epochs: every
// reader must observe a self-consistent (features, model, window) triple no
// matter how the threads interleave. Exercised at 1/4/16 reader threads and
// run under tsan by scripts/check.sh; iteration counts are deliberately
// small so the sanitizer suite stays fast.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ires/modelling.h"

namespace midas {
namespace {

// The writer only ever appends observations obeying cost = 3x + 7 for
// scope "w0" and cost = 5x + 1 for "w1"; a reader seeing anything else has
// caught a torn window.
double TrueCost(const std::string& scope, double x) {
  return scope == "w0" ? 3.0 * x + 7.0 : 5.0 * x + 1.0;
}

class SnapshotConcurrencyTest : public ::testing::TestWithParam<int> {};

TEST_P(SnapshotConcurrencyTest, ReadersSeeConsistentTriples) {
  const int n_readers = GetParam();
  constexpr int kRecordsPerWriter = 120;
  Modelling modelling({"x"}, {"seconds"});

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  // Two writer threads, each owning one scope (the publisher serializes
  // the actual epoch publication; what's under test is reader isolation).
  auto writer = [&](const std::string& scope, uint64_t stride) {
    for (int i = 0; i < kRecordsPerWriter; ++i) {
      const double x = 1.0 + (i % 13) + 0.1 * static_cast<double>(stride);
      Observation obs;
      obs.timestamp = i;
      obs.features = {x};
      obs.costs = {TrueCost(scope, x)};
      if (!modelling.Record(scope, std::move(obs)).ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  };

  auto reader = [&] {
    const EstimatorConfig dream = EstimatorConfig::DreamDefault();
    uint64_t last_epoch = 0;
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const EstimatorSnapshot> snap = modelling.Snapshot();
      // Publication order: epochs are monotone across re-acquisitions.
      if (snap->epoch() < last_epoch) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
      last_epoch = snap->epoch();
      for (const std::string scope : {"w0", "w1"}) {
        auto window = snap->Window(scope);
        if (!window.ok()) continue;  // scope not yet published
        const TrainingSet& frozen = **window;
        // (1) The frozen window is internally consistent: every
        // observation obeys the writer's ground-truth line, and the size
        // agrees with SizeOf.
        if (frozen.size() != snap->SizeOf(scope)) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        for (size_t i = 0; i < frozen.size(); ++i) {
          if (frozen.at(i).costs[0] !=
              TrueCost(scope, frozen.at(i).features[0])) {
            failures.fetch_add(1, std::memory_order_relaxed);
            break;
          }
        }
        // (2) The model is fitted against exactly that window: predicting
        // twice through the pinned snapshot is bit-identical (memoised
        // deterministic fit), regardless of concurrent publications.
        const Vector probe = {4.0};
        auto first = modelling.Predict(*snap, scope, probe, dream);
        auto second = modelling.Predict(*snap, scope, probe, dream);
        if (first.ok() != second.ok()) {
          failures.fetch_add(1, std::memory_order_relaxed);
        } else if (first.ok() && (*first)[0] != (*second)[0]) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
        // (3) The pinned epoch never moves.
        if (snap->epoch() != last_epoch) {
          failures.fetch_add(1, std::memory_order_relaxed);
        }
      }
    }
  };

  std::vector<std::thread> readers;
  readers.reserve(n_readers);
  for (int r = 0; r < n_readers; ++r) readers.emplace_back(reader);
  std::thread w0(writer, "w0", 0);
  std::thread w1(writer, "w1", 1);
  w0.join();
  w1.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  // Both writers' batches landed: one epoch per successful Record.
  EXPECT_EQ(modelling.publisher().epoch(),
            static_cast<uint64_t>(2 * kRecordsPerWriter));
  EXPECT_EQ(modelling.publisher().history().SizeOf("w0"),
            static_cast<size_t>(kRecordsPerWriter));
  EXPECT_EQ(modelling.publisher().history().SizeOf("w1"),
            static_cast<size_t>(kRecordsPerWriter));
}

INSTANTIATE_TEST_SUITE_P(Readers, SnapshotConcurrencyTest,
                         ::testing::Values(1, 4, 16));

TEST(SnapshotBatchAtomicityTest, RecordBatchIsAtomicToReaders) {
  // Readers must never observe a partially applied batch: sizes only move
  // in multiples of the batch size.
  constexpr int kBatches = 60;
  constexpr size_t kBatchSize = 5;
  Modelling modelling({"x"}, {"seconds"});
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};

  std::thread reader([&] {
    while (!done.load(std::memory_order_acquire)) {
      auto snap = modelling.Snapshot();
      if (snap->SizeOf("q") % kBatchSize != 0) {
        failures.fetch_add(1, std::memory_order_relaxed);
      }
    }
  });

  for (int b = 0; b < kBatches; ++b) {
    std::vector<SnapshotPublisher::ScopedObservation> batch;
    for (size_t k = 0; k < kBatchSize; ++k) {
      Observation obs;
      obs.timestamp = b;
      obs.features = {1.0 * b + 0.01 * static_cast<double>(k)};
      obs.costs = {1.0};
      batch.push_back({"q", std::move(obs)});
    }
    ASSERT_TRUE(modelling.RecordBatch(std::move(batch)).ok());
  }
  done.store(true, std::memory_order_release);
  reader.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(modelling.publisher().epoch(), static_cast<uint64_t>(kBatches));
  EXPECT_EQ(modelling.publisher().history().SizeOf("q"), kBatches * kBatchSize);
}

TEST(SnapshotManyScopesTest, BucketRebuildsRacePinnedReaders) {
  // Writers spread over enough scopes that their publications rebuild
  // buckets all over the scope table while readers hold pinned snapshots.
  // Scope s only ever records cost = (s + 1) * x.
  constexpr int kScopes = 200;
  constexpr int kWriters = 2;
  constexpr int kRecordsPerWriter = 300;
  constexpr int kReaders = 4;
  Modelling modelling({"x"}, {"seconds"});
  auto scope_name = [](int s) { return "tenant-" + std::to_string(s); };

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  auto fail = [&failures] {
    failures.fetch_add(1, std::memory_order_relaxed);
  };

  auto writer = [&](int w) {
    for (int i = 0; i < kRecordsPerWriter; ++i) {
      const int s = (w + kWriters * i * 7) % kScopes;
      const double x = 1.0 + i % 11;
      Observation obs;
      obs.timestamp = i;
      obs.features = {x};
      obs.costs = {(s + 1) * x};
      if (!modelling.Record(scope_name(s), std::move(obs)).ok()) fail();
    }
  };

  auto reader = [&](int r) {
    uint64_t last_epoch = 0;
    int probe = r;
    while (!done.load(std::memory_order_acquire)) {
      std::shared_ptr<const EstimatorSnapshot> snap = modelling.Snapshot();
      if (snap->epoch() < last_epoch) fail();
      last_epoch = snap->epoch();
      const std::vector<std::string> scopes = snap->Scopes();
      if (!std::is_sorted(scopes.begin(), scopes.end()) ||
          scopes.size() > static_cast<size_t>(kScopes)) {
        fail();
      }
      size_t total = 0;
      for (const std::string& scope : scopes) {
        if (snap->SizeOf(scope) == 0) fail();
        total += snap->SizeOf(scope);
      }
      // One observation per publication: a pinned snapshot holds exactly
      // as many observations as its epoch.
      if (total != snap->epoch()) fail();
      for (int k = 0; k < 8; ++k, probe = (probe + 13) % kScopes) {
        auto window = snap->Window(scope_name(probe));
        if (!window.ok()) continue;  // scope not yet published
        const TrainingSet& frozen = **window;
        if (frozen.size() != snap->SizeOf(scope_name(probe))) fail();
        for (size_t i = 0; i < frozen.size(); ++i) {
          if (frozen.at(i).costs[0] != (probe + 1) * frozen.at(i).features[0]) {
            fail();
            break;
          }
        }
      }
    }
  };

  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) readers.emplace_back(reader, r);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) writers.emplace_back(writer, w);
  for (std::thread& t : writers) t.join();
  done.store(true, std::memory_order_release);
  for (std::thread& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  auto final_snapshot = modelling.Snapshot();
  EXPECT_EQ(final_snapshot->epoch(),
            static_cast<uint64_t>(kWriters * kRecordsPerWriter));
  EXPECT_EQ(final_snapshot->Scopes(), modelling.publisher().history().Scopes());
  for (const std::string& scope : final_snapshot->Scopes()) {
    EXPECT_EQ(final_snapshot->SizeOf(scope),
              modelling.publisher().history().SizeOf(scope));
  }
}

}  // namespace
}  // namespace midas

#include "ires/snapshot.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

namespace midas {
namespace {

Observation Obs(double x, double cost) {
  Observation obs;
  obs.features = {x};
  obs.costs = {cost};
  return obs;
}

SnapshotPublisher MakePublisher() {
  return SnapshotPublisher({"x"}, {"seconds"});
}

// Enough scopes that every bucket of the scope table holds several.
constexpr int kManyScopes = 320;

std::string ScopeName(int i) { return "tenant-" + std::to_string(i); }

// Publishes kManyScopes scopes, then a second observation for every third
// one, so windows differ in size.
void RecordManyScopes(SnapshotPublisher* publisher) {
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  for (int i = 0; i < kManyScopes; ++i) {
    batch.push_back({ScopeName(i), Obs(1.0 * i, 2.0 * i)});
  }
  ASSERT_TRUE(publisher->RecordBatch(std::move(batch)).ok());
  for (int i = 0; i < kManyScopes; i += 3) {
    ASSERT_TRUE(publisher->Record(ScopeName(i), Obs(i + 0.5, 1.0)).ok());
  }
}

TEST(SnapshotPublisherTest, InitialSnapshotIsEmptyEpochZero) {
  SnapshotPublisher publisher = MakePublisher();
  EXPECT_EQ(publisher.epoch(), 0u);
  auto snapshot = publisher.Acquire();
  EXPECT_EQ(snapshot->epoch(), 0u);
  EXPECT_TRUE(snapshot->Scopes().empty());
  EXPECT_EQ(snapshot->SizeOf("q1"), 0u);
  EXPECT_EQ(snapshot->num_features(), 1u);
  EXPECT_EQ(snapshot->metric_names()[0], "seconds");
  EXPECT_FALSE(snapshot->Window("q1").ok());
}

TEST(SnapshotPublisherTest, MissingScopeMatchesLiveHistoryVerbatim) {
  // The snapshot path must answer exactly like the live History so the
  // two prediction paths are interchangeable, error text included.
  SnapshotPublisher publisher = MakePublisher();
  const Status live = publisher.history().Get("nope").status();
  const Status frozen = publisher.Acquire()->Window("nope").status();
  EXPECT_EQ(live.code(), frozen.code());
  EXPECT_EQ(live.message(), frozen.message());
}

TEST(SnapshotPublisherTest, EveryRecordPublishesASuccessorEpoch) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  EXPECT_EQ(publisher.epoch(), 1u);
  ASSERT_TRUE(publisher.Record("q1", Obs(2.0, 20.0)).ok());
  EXPECT_EQ(publisher.epoch(), 2u);
  auto snapshot = publisher.Acquire();
  EXPECT_EQ(snapshot->epoch(), 2u);
  EXPECT_EQ(snapshot->SizeOf("q1"), 2u);
}

TEST(SnapshotPublisherTest, RecordBatchPublishesExactlyOneEpoch) {
  SnapshotPublisher publisher = MakePublisher();
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  batch.push_back({"q1", Obs(1.0, 10.0)});
  batch.push_back({"q1", Obs(2.0, 20.0)});
  batch.push_back({"q2", Obs(3.0, 30.0)});
  ASSERT_TRUE(publisher.RecordBatch(std::move(batch)).ok());
  EXPECT_EQ(publisher.epoch(), 1u);
  auto snapshot = publisher.Acquire();
  EXPECT_EQ(snapshot->SizeOf("q1"), 2u);
  EXPECT_EQ(snapshot->SizeOf("q2"), 1u);
}

TEST(SnapshotPublisherTest, RecordBatchReportsThePublishedEpoch) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  batch.push_back({"q1", Obs(2.0, 20.0)});
  batch.push_back({"q1", Obs(3.0, 30.0)});
  uint64_t epoch = 0;
  ASSERT_TRUE(publisher.RecordBatch(std::move(batch), &epoch).ok());
  EXPECT_EQ(epoch, 2u);
  EXPECT_EQ(publisher.epoch(), 2u);
  // An empty batch publishes nothing and reports the standing epoch.
  uint64_t unchanged = 99;
  ASSERT_TRUE(publisher.RecordBatch({}, &unchanged).ok());
  EXPECT_EQ(unchanged, 2u);
}

TEST(SnapshotPublisherTest, PublishListenersFireOnEveryPublication) {
  SnapshotPublisher publisher = MakePublisher();
  std::vector<uint64_t> seen;
  publisher.AddPublishListener(
      [&seen](uint64_t epoch) { seen.push_back(epoch); });
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  batch.push_back({"q1", Obs(2.0, 20.0)});
  batch.push_back({"q2", Obs(3.0, 30.0)});
  ASSERT_TRUE(publisher.RecordBatch(std::move(batch)).ok());
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  // An empty batch publishes nothing, so no notification fires.
  ASSERT_TRUE(publisher.RecordBatch({}).ok());
  EXPECT_EQ(seen.size(), 2u);
}

TEST(SnapshotPublisherTest, ListenerMayAcquireWithoutDeadlock) {
  SnapshotPublisher publisher = MakePublisher();
  uint64_t pinned_epoch = 0;
  publisher.AddPublishListener([&](uint64_t epoch) {
    auto snapshot = publisher.Acquire();  // must not self-deadlock
    EXPECT_EQ(snapshot->epoch(), epoch);
    pinned_epoch = snapshot->epoch();
  });
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  EXPECT_EQ(pinned_epoch, 1u);
}

TEST(SnapshotPublisherTest, PinnedSnapshotNeverSeesLaterRecords) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  auto pinned = publisher.Acquire();
  ASSERT_TRUE(publisher.Record("q1", Obs(2.0, 20.0)).ok());
  ASSERT_TRUE(publisher.Record("q2", Obs(3.0, 30.0)).ok());
  EXPECT_EQ(pinned->epoch(), 1u);
  EXPECT_EQ(pinned->SizeOf("q1"), 1u);
  EXPECT_EQ(pinned->SizeOf("q2"), 0u);
  const TrainingSet* frozen = pinned->Window("q1").ValueOrDie();
  EXPECT_DOUBLE_EQ(frozen->at(0).features[0], 1.0);
  // The writer meanwhile moved on.
  EXPECT_EQ(publisher.Acquire()->SizeOf("q1"), 2u);
}

TEST(SnapshotPublisherTest, UntouchedScopesCarryOverBetweenEpochs) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("stable", Obs(1.0, 10.0)).ok());
  ASSERT_TRUE(publisher.Record("hot", Obs(2.0, 20.0)).ok());
  auto before = publisher.Acquire();
  ASSERT_TRUE(publisher.Record("hot", Obs(3.0, 30.0)).ok());
  auto after = publisher.Acquire();
  // Structural sharing: the untouched scope's frozen state is the SAME
  // object (fit memos ride along); the touched scope was rebuilt.
  EXPECT_EQ(before->Window("stable").ValueOrDie(),
            after->Window("stable").ValueOrDie());
  EXPECT_NE(before->Window("hot").ValueOrDie(),
            after->Window("hot").ValueOrDie());
}

TEST(SnapshotPublisherTest, FailedAddStillCreatesTheScopeLikeHistoryDoes) {
  // History::Record creates the scope before validating the observation;
  // the snapshot must mirror the (empty) scope so later queries agree.
  SnapshotPublisher publisher = MakePublisher();
  Observation bad;
  bad.features = {1.0, 2.0};  // arity mismatch
  bad.costs = {1.0};
  EXPECT_FALSE(publisher.Record("q1", std::move(bad)).ok());
  const bool live_has_scope = publisher.history().Get("q1").ok();
  auto snapshot = publisher.Acquire();
  EXPECT_EQ(snapshot->Window("q1").ok(), live_has_scope);
  EXPECT_EQ(snapshot->SizeOf("q1"), publisher.history().SizeOf("q1"));
}

TEST(EstimatorSnapshotBucketTest, ManyScopesCoverEveryBucket) {
  std::set<size_t> buckets;
  for (int i = 0; i < kManyScopes; ++i) {
    const size_t bucket = EstimatorSnapshot::BucketOf(ScopeName(i));
    ASSERT_LT(bucket, EstimatorSnapshot::kBuckets);
    buckets.insert(bucket);
  }
  EXPECT_EQ(buckets.size(), EstimatorSnapshot::kBuckets);
}

TEST(EstimatorSnapshotBucketTest, RecordRebuildsOnlyTheTouchedScope) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto before = publisher.Acquire();
  const std::string hot = ScopeName(17);
  ASSERT_TRUE(publisher.Record(hot, Obs(99.0, 1.0)).ok());
  auto after = publisher.Acquire();
  for (int i = 0; i < kManyScopes; ++i) {
    const std::string scope = ScopeName(i);
    if (scope == hot) continue;
    EXPECT_EQ(before->Window(scope).ValueOrDie(),
              after->Window(scope).ValueOrDie())
        << scope;
  }
  EXPECT_NE(before->Window(hot).ValueOrDie(), after->Window(hot).ValueOrDie());
  EXPECT_EQ(after->SizeOf(hot), before->SizeOf(hot) + 1);
}

TEST(EstimatorSnapshotBucketTest, NewScopeLeavesItsBucketMatesShared) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto before = publisher.Acquire();
  const std::string newcomer = "newcomer";
  std::vector<std::string> mates;
  for (int i = 0; i < kManyScopes; ++i) {
    if (EstimatorSnapshot::BucketOf(ScopeName(i)) ==
        EstimatorSnapshot::BucketOf(newcomer)) {
      mates.push_back(ScopeName(i));
    }
  }
  ASSERT_FALSE(mates.empty());
  ASSERT_TRUE(publisher.Record(newcomer, Obs(5.0, 5.0)).ok());
  auto after = publisher.Acquire();
  for (const std::string& mate : mates) {
    EXPECT_EQ(before->Window(mate).ValueOrDie(),
              after->Window(mate).ValueOrDie())
        << mate;
  }
  EXPECT_FALSE(before->Window(newcomer).ok());
  EXPECT_EQ(after->SizeOf(newcomer), 1u);
  EXPECT_EQ(after->Scopes().size(), before->Scopes().size() + 1);
}

TEST(EstimatorSnapshotBucketTest, ScopesIsSortedAndComplete) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  const std::vector<std::string> scopes = publisher.Acquire()->Scopes();
  std::vector<std::string> want;
  for (int i = 0; i < kManyScopes; ++i) want.push_back(ScopeName(i));
  std::sort(want.begin(), want.end());
  EXPECT_EQ(scopes, want);
  EXPECT_EQ(scopes, publisher.history().Scopes());
}

TEST(EstimatorSnapshotBucketTest, SizeOfAndNotFoundAgreeWithHistory) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto snapshot = publisher.Acquire();
  std::vector<std::string> probes = {"", "tenant-", "tenant-320", "zzz"};
  for (int i = 0; i < kManyScopes; ++i) probes.push_back(ScopeName(i));
  for (const std::string& scope : probes) {
    EXPECT_EQ(snapshot->SizeOf(scope), publisher.history().SizeOf(scope))
        << scope;
    const Status live = publisher.history().Get(scope).status();
    const Status frozen = snapshot->Window(scope).status();
    EXPECT_EQ(frozen.code(), live.code()) << scope;
    EXPECT_EQ(frozen.message(), live.message()) << scope;
  }
}

// The first scope of ScopeName(0..) that lands in directory `directory`
// and not in bucket `avoid_bucket`.
std::string ScopeInDirectory(size_t directory, size_t avoid_bucket) {
  for (int i = 0;; ++i) {
    const size_t bucket = EstimatorSnapshot::BucketOf(ScopeName(i));
    if (bucket / EstimatorSnapshot::kBucketsPerDirectory == directory &&
        bucket != avoid_bucket) {
      return ScopeName(i);
    }
  }
}

TEST(EstimatorSnapshotDirectoryTest,
     BatchRebuildsOnlyTheTouchedDirectories) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto before = publisher.Acquire();
  // Two scopes in directory 1 (different buckets) and one in directory 6.
  const std::string a = ScopeInDirectory(1, EstimatorSnapshot::kBuckets);
  const std::string b = ScopeInDirectory(1, EstimatorSnapshot::BucketOf(a));
  const std::string c = ScopeInDirectory(6, EstimatorSnapshot::kBuckets);
  const std::set<std::string> touched = {a, b, c};
  const std::set<size_t> touched_buckets = {EstimatorSnapshot::BucketOf(a),
                                            EstimatorSnapshot::BucketOf(b),
                                            EstimatorSnapshot::BucketOf(c)};
  ASSERT_EQ(touched_buckets.size(), 3u);
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  for (const std::string& scope : touched) {
    batch.push_back({scope, Obs(7.0, 7.0)});
  }
  ASSERT_TRUE(publisher.RecordBatch(std::move(batch)).ok());
  auto after = publisher.Acquire();
  ASSERT_EQ(after->epoch(), before->epoch() + 1);

  for (size_t d = 0; d < EstimatorSnapshot::kDirectories; ++d) {
    EXPECT_EQ(after->SharesDirectoryWith(*before, d), d != 1 && d != 6) << d;
  }
  for (size_t k = 0; k < EstimatorSnapshot::kBuckets; ++k) {
    EXPECT_EQ(after->SharesBucketWith(*before, k),
              touched_buckets.count(k) == 0)
        << k;
  }
  for (int i = 0; i < kManyScopes; ++i) {
    const std::string scope = ScopeName(i);
    const TrainingSet* was = before->Window(scope).ValueOrDie();
    const TrainingSet* now = after->Window(scope).ValueOrDie();
    if (touched.count(scope) > 0) {
      EXPECT_NE(was, now) << scope;
      EXPECT_EQ(after->SizeOf(scope), before->SizeOf(scope) + 1) << scope;
    } else {
      EXPECT_EQ(was, now) << scope;
    }
  }
}

TEST(EstimatorSnapshotDirectoryTest,
     PinnedSnapshotOutlivesRebuildsOfEveryBucket) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto pinned = publisher.Acquire();
  std::vector<size_t> sizes;
  for (int i = 0; i < kManyScopes; ++i) {
    sizes.push_back(pinned->SizeOf(ScopeName(i)));
  }
  // Three rounds, each touching every scope and so all 64 buckets: one as
  // a single batch, then scope by scope.
  std::vector<SnapshotPublisher::ScopedObservation> batch;
  for (int i = 0; i < kManyScopes; ++i) {
    batch.push_back({ScopeName(i), Obs(-1.0, -1.0)});
  }
  ASSERT_TRUE(publisher.RecordBatch(std::move(batch)).ok());
  for (int round = 0; round < 2; ++round) {
    for (int i = 0; i < kManyScopes; ++i) {
      ASSERT_TRUE(publisher.Record(ScopeName(i), Obs(-2.0, -2.0)).ok());
    }
  }
  auto latest = publisher.Acquire();
  for (size_t d = 0; d < EstimatorSnapshot::kDirectories; ++d) {
    EXPECT_FALSE(latest->SharesDirectoryWith(*pinned, d)) << d;
  }
  EXPECT_EQ(pinned->Scopes().size(), static_cast<size_t>(kManyScopes));
  for (int i = 0; i < kManyScopes; ++i) {
    const std::string scope = ScopeName(i);
    ASSERT_EQ(pinned->SizeOf(scope), sizes[i]) << scope;
    const TrainingSet* frozen = pinned->Window(scope).ValueOrDie();
    ASSERT_EQ(frozen->size(), sizes[i]) << scope;
    // The pinned windows hold only what RecordManyScopes wrote.
    EXPECT_EQ(frozen->at(0).features[0], 1.0 * i) << scope;
    EXPECT_EQ(frozen->at(0).costs[0], 2.0 * i) << scope;
    if (i % 3 == 0) {
      EXPECT_EQ(frozen->at(1).features[0], i + 0.5) << scope;
    }
    EXPECT_EQ(latest->SizeOf(scope), sizes[i] + 3) << scope;
  }
}

TEST(EstimatorSnapshotTest, DreamFitIsMemoisedPerConfiguration) {
  SnapshotPublisher publisher = MakePublisher();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        publisher.Record("q1", Obs(1.0 * i, 2.0 * i + 1.0)).ok());
  }
  auto snapshot = publisher.Acquire();
  DreamOptions options;
  auto first = snapshot->DreamFit("q1", options);
  ASSERT_TRUE(first.ok());
  auto second = snapshot->DreamFit("q1", options);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(first->get(), second->get());  // same fit object, no refit
  // Equal options built separately share the fit too: the memo compares
  // values, not objects.
  DreamOptions equal;
  auto third = snapshot->DreamFit("q1", equal);
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(first->get(), third->get());

  // A change to any single field is its own configuration, and each one
  // is memoised in turn.
  std::vector<std::pair<std::string, DreamOptions>> variants;
  variants.emplace_back("r2_require", options);
  variants.back().second.r2_require = 0.5;
  variants.emplace_back("m_max", options);
  variants.back().second.m_max = 5;
  variants.emplace_back("use_adjusted_r2", options);
  variants.back().second.use_adjusted_r2 = !options.use_adjusted_r2;
  variants.emplace_back("engine", options);
  variants.back().second.engine = options.engine == DreamEngine::kBatch
                                      ? DreamEngine::kIncremental
                                      : DreamEngine::kBatch;
  variants.emplace_back("ols.ridge_fallback", options);
  variants.back().second.ols.ridge_fallback = 2e-6;
  std::set<const DreamEstimate*> fits = {first->get()};
  for (const auto& [field, variant] : variants) {
    auto fit = snapshot->DreamFit("q1", variant);
    ASSERT_TRUE(fit.ok()) << field;
    EXPECT_TRUE(fits.insert(fit->get()).second) << field << " shared a fit";
    auto again = snapshot->DreamFit("q1", variant);
    ASSERT_TRUE(again.ok()) << field;
    EXPECT_EQ(again->get(), fit->get()) << field << " was refitted";
  }
  // Doubles are compared bit for bit, as a full-precision key would.
  DreamOptions one_ulp = options;
  one_ulp.r2_require = std::nextafter(options.r2_require, 1.0);
  auto nudged = snapshot->DreamFit("q1", one_ulp);
  ASSERT_TRUE(nudged.ok());
  EXPECT_TRUE(fits.insert(nudged->get()).second);
  DreamOptions zero = options;
  zero.ols.ridge_fallback = 0.0;
  DreamOptions negative_zero = options;
  negative_zero.ols.ridge_fallback = -0.0;
  auto zero_fit = snapshot->DreamFit("q1", zero);
  auto negative_zero_fit = snapshot->DreamFit("q1", negative_zero);
  ASSERT_TRUE(zero_fit.ok());
  ASSERT_TRUE(negative_zero_fit.ok());
  EXPECT_NE(zero_fit->get(), negative_zero_fit->get());
}

TEST(EstimatorSnapshotTest, DreamFitCarriesOverForUntouchedScopes) {
  SnapshotPublisher publisher = MakePublisher();
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(
        publisher.Record("stable", Obs(1.0 * i, 2.0 * i + 1.0)).ok());
  }
  auto before = publisher.Acquire();
  auto fit_before = before->DreamFit("stable", DreamOptions());
  ASSERT_TRUE(fit_before.ok());
  ASSERT_TRUE(publisher.Record("other", Obs(1.0, 1.0)).ok());
  auto after = publisher.Acquire();
  auto fit_after = after->DreamFit("stable", DreamOptions());
  ASSERT_TRUE(fit_after.ok());
  // The delta replay touched only "other": the already-computed DREAM fit
  // keeps serving the next epoch's readers.
  EXPECT_EQ(fit_before->get(), fit_after->get());
}

TEST(EstimatorSnapshotTest, BmlFitterRunsOncePerKey) {
  SnapshotPublisher publisher = MakePublisher();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(publisher.Record("q1", Obs(1.0 * i, 3.0 * i)).ok());
  }
  auto snapshot = publisher.Acquire();
  int calls = 0;
  auto fitter = [&calls](const TrainingSet& set) -> StatusOr<BmlScopeFit> {
    ++calls;
    BmlScopeFit fit;
    fit.names.push_back("stub-" + std::to_string(set.size()));
    return fit;
  };
  auto first = snapshot->BmlFit("q1", "BML_N", fitter);
  ASSERT_TRUE(first.ok());
  auto second = snapshot->BmlFit("q1", "BML_N", fitter);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(calls, 1);
  EXPECT_EQ(first->get(), second->get());
  EXPECT_EQ((*first)->names[0], "stub-5");

  auto other_key = snapshot->BmlFit("q1", "BML_2N", fitter);
  ASSERT_TRUE(other_key.ok());
  EXPECT_EQ(calls, 2);
}

TEST(EstimatorSnapshotTest, FitErrorsAreNotMemoised) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 1.0)).ok());
  auto snapshot = publisher.Acquire();
  int calls = 0;
  auto failing = [&calls](const TrainingSet&) -> StatusOr<BmlScopeFit> {
    ++calls;
    return Status::FailedPrecondition("not enough history");
  };
  EXPECT_FALSE(snapshot->BmlFit("q1", "BML_N", failing).ok());
  EXPECT_FALSE(snapshot->BmlFit("q1", "BML_N", failing).ok());
  EXPECT_EQ(calls, 2);  // errors are retried, not cached
}

}  // namespace
}  // namespace midas

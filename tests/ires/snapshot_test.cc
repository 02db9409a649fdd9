#include "ires/snapshot.h"

#include <algorithm>
#include <memory>
#include <set>
#include <string>
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
  // The dirty MutableHistory republish (folded into Acquire) is a
  // publication too.
  publisher.MutableHistory();
  auto snapshot = publisher.Acquire();
  ASSERT_EQ(seen.size(), 3u);
  EXPECT_EQ(seen.back(), snapshot->epoch());
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

TEST(SnapshotPublisherTest, MutableHistoryTriggersFullRepublish) {
  SnapshotPublisher publisher = MakePublisher();
  ASSERT_TRUE(publisher.Record("q1", Obs(1.0, 10.0)).ok());
  ASSERT_TRUE(publisher.Record("q1", Obs(2.0, 20.0)).ok());
  const uint64_t epoch_before = publisher.epoch();
  publisher.MutableHistory().TrimAll(1);
  auto snapshot = publisher.Acquire();
  EXPECT_GT(snapshot->epoch(), epoch_before);
  EXPECT_EQ(snapshot->SizeOf("q1"), 1u);
  EXPECT_DOUBLE_EQ(
      snapshot->Window("q1").ValueOrDie()->at(0).features[0], 2.0);
  // Re-acquiring without new writes does not mint new epochs.
  EXPECT_EQ(publisher.Acquire()->epoch(), snapshot->epoch());
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

TEST(EstimatorSnapshotBucketTest, MutableHistoryRepublishKeepsContents) {
  SnapshotPublisher publisher = MakePublisher();
  RecordManyScopes(&publisher);
  auto before = publisher.Acquire();
  publisher.MutableHistory();
  auto after = publisher.Acquire();
  EXPECT_EQ(after->epoch(), before->epoch() + 1);
  ASSERT_EQ(after->Scopes(), before->Scopes());
  for (const std::string& scope : before->Scopes()) {
    const TrainingSet* was = before->Window(scope).ValueOrDie();
    const TrainingSet* now = after->Window(scope).ValueOrDie();
    EXPECT_NE(was, now) << scope;  // rebuilt from the live history
    ASSERT_EQ(now->size(), was->size()) << scope;
    for (size_t k = 0; k < was->size(); ++k) {
      EXPECT_EQ(now->at(k).timestamp, was->at(k).timestamp);
      EXPECT_EQ(now->at(k).features, was->at(k).features);
      EXPECT_EQ(now->at(k).costs, was->at(k).costs);
    }
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

  DreamOptions other = options;
  other.r2_require = 0.5;
  auto third = snapshot->DreamFit("q1", other);
  ASSERT_TRUE(third.ok());
  EXPECT_NE(first->get(), third->get());  // distinct configuration
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

#include "optimizer/pareto_archive.h"

#include <numeric>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.h"
#include "optimizer/pareto.h"

namespace midas {
namespace {

size_t InsertAll(ParetoArchive* archive,
                 const std::vector<Vector>& costs) {
  std::vector<size_t> evicted;
  size_t accepted = 0;
  for (const Vector& c : costs) {
    if (archive->Insert(c, &evicted)) ++accepted;
  }
  return accepted;
}

TEST(ParetoArchiveCoreTest, KeepsNonDominatedInArrivalOrder) {
  ParetoArchive archive;
  InsertAll(&archive, {{1, 5}, {2, 4}, {3, 3}, {2, 6}, {4, 4}});
  EXPECT_EQ(archive.costs(), (std::vector<Vector>{{1, 5}, {2, 4}, {3, 3}}));
}

TEST(ParetoArchiveCoreTest, DominatedInsertLeavesArchiveUntouched) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 1}, &evicted));
  EXPECT_FALSE(archive.Insert({2, 2}, &evicted));
  EXPECT_TRUE(evicted.empty());
  EXPECT_EQ(archive.costs(), (std::vector<Vector>{{1, 1}}));
  EXPECT_EQ(archive.dominated_rejections(), 1u);
}

TEST(ParetoArchiveCoreTest, EvictionsReportedAscendingAndCompacted) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 9}, &evicted));
  ASSERT_TRUE(archive.Insert({5, 5}, &evicted));
  ASSERT_TRUE(archive.Insert({9, 1}, &evicted));
  // {0, 4} dominates the members at positions 0 and 1 but not {9, 1}.
  ASSERT_TRUE(archive.Insert({0, 4}, &evicted));
  EXPECT_EQ(evicted, (std::vector<size_t>{0, 1}));
  EXPECT_EQ(archive.costs(), (std::vector<Vector>{{9, 1}, {0, 4}}));
  EXPECT_EQ(archive.evictions(), 2u);
}

TEST(ParetoArchiveCoreTest, TakeCostsResetsMembershipButKeepsStats) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 2}, &evicted));
  EXPECT_EQ(archive.TakeCosts(), (std::vector<Vector>{{1, 2}}));
  EXPECT_TRUE(archive.empty());
  // The moved-out member no longer blocks re-insertion as a duplicate...
  EXPECT_TRUE(archive.Insert({1, 2}, &evicted));
  // ...while the counters keep accumulating across the reset.
  EXPECT_EQ(archive.considered(), 2u);
  EXPECT_EQ(archive.duplicate_rejections(), 0u);
}

TEST(ParetoArchiveCoreTest, StatsAccounting) {
  Rng rng(99);
  std::vector<Vector> costs(400, Vector(2));
  for (Vector& c : costs) {
    for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 6));
  }
  ParetoArchive archive;
  const size_t accepted = InsertAll(&archive, costs);
  EXPECT_EQ(archive.considered(), costs.size());
  EXPECT_EQ(accepted + archive.duplicate_rejections() +
                archive.dominated_rejections(),
            costs.size());
  EXPECT_EQ(archive.size() + archive.evictions(), accepted);
  EXPECT_GE(archive.peak_size(), archive.size());
  EXPECT_LE(archive.peak_size(), accepted);
}

TEST(ParetoArchiveTest, DuplicateKeepsFirstSequence) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  EXPECT_TRUE(archive.Insert({1, 2}, &evicted));
  EXPECT_FALSE(archive.Insert({1, 2}, &evicted));
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{0}));
  EXPECT_EQ(archive.duplicate_rejections(), 1u);
}

TEST(ParetoArchiveTest, SequencesStayAlignedThroughEvictions) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 9}, &evicted));
  ASSERT_TRUE(archive.Insert({5, 5}, &evicted));
  ASSERT_TRUE(archive.Insert({9, 1}, &evicted));
  ASSERT_TRUE(archive.Insert({0, 4}, &evicted));  // evicts seqs 0 and 1
  EXPECT_EQ(archive.costs(), (std::vector<Vector>{{9, 1}, {0, 4}}));
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{2, 3}));
  std::vector<Vector> costs;
  std::vector<uint64_t> seqs;
  archive.TakeMembers(&costs, &seqs);
  EXPECT_EQ(costs, (std::vector<Vector>{{9, 1}, {0, 4}}));
  EXPECT_EQ(seqs, (std::vector<uint64_t>{2, 3}));
  EXPECT_TRUE(archive.empty());
}

// Materialize-everything reference: the global Pareto front with one
// (first) representative per distinct cost vector, in arrival order —
// exactly what FromCandidates produces.
void ReferenceFront(const std::vector<Vector>& costs,
                    std::vector<Vector>* front_costs,
                    std::vector<uint64_t>* front_ids) {
  std::unordered_set<Vector, VectorHash> seen;
  for (size_t idx : ParetoFrontIndices(costs)) {
    if (!seen.insert(costs[idx]).second) continue;
    front_costs->push_back(costs[idx]);
    front_ids->push_back(idx);
  }
}

TEST(ParetoArchiveTest, StreamingEqualsMaterializedReferenceRandomized) {
  Rng rng(555);
  for (size_t n : {size_t{0}, size_t{1}, size_t{10}, size_t{100},
                   size_t{500}}) {
    for (size_t arity : {size_t{2}, size_t{3}}) {
      std::vector<Vector> costs(n, Vector(arity));
      for (Vector& c : costs) {
        for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 8));
      }
      ParetoArchive archive;
      std::vector<size_t> evicted;
      for (size_t i = 0; i < n; ++i) archive.Insert(costs[i], &evicted);
      std::vector<Vector> want_costs;
      std::vector<uint64_t> want_ids;
      ReferenceFront(costs, &want_costs, &want_ids);
      EXPECT_EQ(archive.costs(), want_costs)
          << "n=" << n << " arity=" << arity;
      EXPECT_EQ(archive.seqs(), want_ids)
          << "n=" << n << " arity=" << arity;
      EXPECT_EQ(archive.considered(), n) << "n=" << n << " arity=" << arity;
    }
  }
}

TEST(ParetoArchiveTest, ClearEmptiesBothSides) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 2}, &evicted));
  archive.Clear();
  EXPECT_TRUE(archive.empty());
  EXPECT_TRUE(archive.seqs().empty());
  EXPECT_TRUE(archive.Insert({1, 2}, &evicted));  // not a duplicate after Clear
}

TEST(ParetoArchiveCoreTest, PlainInsertsCarryArrivalSequences) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  ASSERT_TRUE(archive.Insert({1, 9}, &evicted));
  EXPECT_FALSE(archive.Insert({2, 10}, &evicted));  // dominated, still counted
  ASSERT_TRUE(archive.Insert({9, 1}, &evicted));
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{0, 2}));
}

TEST(ParetoArchiveTest, SequencedDuplicateKeepsSmallestSequence) {
  using Outcome = ParetoArchive::SequencedInsert;
  ParetoArchive archive;
  std::vector<size_t> evicted;
  EXPECT_EQ(archive.InsertSequenced({1, 2}, 7, &evicted), Outcome::kInserted);
  // Same cost, smaller sequence: the member stays put but adopts the
  // earlier representative's sequence.
  EXPECT_EQ(archive.InsertSequenced({1, 2}, 3, &evicted),
            Outcome::kReplacedRepresentative);
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{3}));
  EXPECT_EQ(archive.duplicate_replacements(), 1u);
  // Same cost, larger sequence: plain duplicate rejection.
  EXPECT_EQ(archive.InsertSequenced({1, 2}, 5, &evicted),
            Outcome::kRejectedDuplicate);
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{3}));
  EXPECT_EQ(archive.duplicate_rejections(), 1u);
}

TEST(ParetoArchiveTest, SortBySequenceRestoresArrivalOrder) {
  ParetoArchive archive;
  std::vector<size_t> evicted;
  EXPECT_TRUE(archive.InsertSequenced({9, 1}, 5, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  EXPECT_TRUE(archive.InsertSequenced({1, 9}, 0, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  EXPECT_TRUE(archive.InsertSequenced({5, 5}, 2, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  archive.SortBySequence();
  EXPECT_EQ(archive.costs(), (std::vector<Vector>{{1, 9}, {5, 5}, {9, 1}}));
  EXPECT_EQ(archive.seqs(), (std::vector<uint64_t>{0, 2, 5}));
}

// Single-pass reference for the merge suites: every cost in stream order
// through one archive, then member sequences compared against the merged
// result.
void SinglePassArchive(const std::vector<Vector>& costs,
                       ParetoArchive* archive) {
  std::vector<size_t> evicted;
  for (const Vector& cost : costs) archive->Insert(cost, &evicted);
}

// Round-robin split of the stream into `k` archives, each fed its slice in
// stream order under global sequences.
std::vector<ParetoArchive> ShardArchives(const std::vector<Vector>& costs,
                                         size_t k) {
  std::vector<ParetoArchive> shards(k);
  std::vector<size_t> evicted;
  for (size_t i = 0; i < costs.size(); ++i) {
    shards[i % k].InsertSequenced(costs[i], i, &evicted);
  }
  return shards;
}

// The satellite's randomized MergeFrom oracle: split the stream K ways
// (round-robin), fold each slice into its own archive with explicit
// global sequences, tree-merge the slices in several shuffled orders, and
// demand the result equals both the single-pass archive and the
// materialized ReferenceFront.
TEST(ParetoArchiveTest, ShardedMergeMatchesSinglePassAndReferenceRandomized) {
  Rng rng(4242);
  for (size_t n : {size_t{1}, size_t{37}, size_t{200}, size_t{500}}) {
    for (size_t arity : {size_t{2}, size_t{3}}) {
      for (size_t k : {size_t{2}, size_t{3}, size_t{7}}) {
        std::vector<Vector> costs(n, Vector(arity));
        for (Vector& c : costs) {
          for (double& v : c) v = static_cast<double>(rng.UniformInt(0, 6));
        }
        ParetoArchive single;
        SinglePassArchive(costs, &single);
        std::vector<Vector> want_costs;
        std::vector<uint64_t> want_ids;
        ReferenceFront(costs, &want_costs, &want_ids);
        ASSERT_EQ(single.costs(), want_costs) << "n=" << n << " k=" << k;

        for (int shuffle = 0; shuffle < 4; ++shuffle) {
          std::vector<ParetoArchive> shards = ShardArchives(costs, k);
          // Merge in a random tree order: repeatedly fold a random
          // archive into another random one.
          while (shards.size() > 1) {
            const size_t into = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int>(shards.size()) - 1));
            size_t from = static_cast<size_t>(
                rng.UniformInt(0, static_cast<int>(shards.size()) - 2));
            if (from >= into) ++from;
            shards[into].MergeFrom(std::move(shards[from]));
            shards.erase(shards.begin() + static_cast<long>(from));
          }
          shards.front().SortBySequence();
          EXPECT_EQ(shards.front().costs(), want_costs)
              << "n=" << n << " arity=" << arity << " k=" << k
              << " shuffle=" << shuffle;
          EXPECT_EQ(shards.front().seqs(), want_ids)
              << "n=" << n << " arity=" << arity << " k=" << k
              << " shuffle=" << shuffle;
        }

        // MergeTree: same members through the deterministic balanced tree.
        ParetoArchive merged =
            ParetoArchive::MergeTree(ShardArchives(costs, k));
        merged.SortBySequence();
        EXPECT_EQ(merged.costs(), want_costs) << "n=" << n << " k=" << k;
        EXPECT_EQ(merged.seqs(), want_ids) << "n=" << n << " k=" << k;
      }
    }
  }
}

TEST(ParetoArchiveTest, MergeTreeOfEmptyInputIsEmpty) {
  ParetoArchive merged = ParetoArchive::MergeTree({});
  EXPECT_TRUE(merged.empty());
  std::vector<ParetoArchive> empties(3);
  merged = ParetoArchive::MergeTree(std::move(empties));
  EXPECT_TRUE(merged.empty());
}

TEST(ParetoArchiveTest, MergeFromDrainsSourceAndCountsInserts) {
  ParetoArchive a;
  ParetoArchive b;
  std::vector<size_t> evicted;
  ASSERT_TRUE(a.InsertSequenced({1, 9}, 0, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  ASSERT_TRUE(b.InsertSequenced({9, 1}, 1, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  ASSERT_TRUE(b.InsertSequenced({5, 5}, 2, &evicted) ==
              ParetoArchive::SequencedInsert::kInserted);
  a.MergeFrom(std::move(b));
  EXPECT_TRUE(b.empty());
  EXPECT_EQ(a.size(), 3u);
  EXPECT_EQ(a.considered(), 3u);  // 1 direct + 2 merged-in offers
}

}  // namespace
}  // namespace midas

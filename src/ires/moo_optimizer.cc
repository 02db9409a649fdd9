#include "ires/moo_optimizer.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/statistics.h"
#include "common/thread_pool.h"
#include "ires/features.h"
#include "optimizer/configuration_problem.h"
#include "optimizer/pareto.h"
#include "optimizer/pareto_archive.h"
#include "optimizer/wsm.h"

namespace midas {

namespace {

// The checks every cost row passes, whichever predictor produced it. A NaN
// cost neither dominates nor is dominated, and an infinite one wins or
// loses Algorithm 2 by accident: the costing stage fails closed.
Status CheckCostRow(const double* costs, size_t size, size_t arity) {
  if (size != arity) {
    return Status::InvalidArgument("predictor/policy arity mismatch");
  }
  for (size_t i = 0; i < size; ++i) {
    if (!std::isfinite(costs[i])) {
      return Status::FailedPrecondition("predictor returned a non-finite cost");
    }
  }
  return Status::OK();
}

}  // namespace

std::string MoqpAlgorithmName(MoqpAlgorithm algorithm) {
  switch (algorithm) {
    case MoqpAlgorithm::kExhaustivePareto:
      return "exhaustive-pareto";
    case MoqpAlgorithm::kNsga2:
      return "nsga2";
    case MoqpAlgorithm::kNsgaG:
      return "nsga-g";
    case MoqpAlgorithm::kWsm:
      return "wsm";
  }
  return "?";
}

MultiObjectiveOptimizer::MultiObjectiveOptimizer(const Federation* federation,
                                                 const Catalog* catalog,
                                                 MoqpOptions options)
    : federation_(federation),
      catalog_(catalog),
      options_(std::move(options)) {}

StatusOr<std::shared_ptr<const PlanSpace>>
MultiObjectiveOptimizer::FeatureSpace(const QueryPlan& logical) const {
  const uint64_t hash = HashPlan(logical);
  const auto find = [&]() -> MemoEntry* {
    for (MemoEntry& entry : memo_) {
      if (entry.hash == hash && IdenticalPlans(entry.logical, logical)) {
        entry.last_used = ++memo_clock_;
        return &entry;
      }
    }
    return nullptr;
  };
  bool admit = false;
  {
    std::lock_guard<std::mutex> lock(memo_mutex_);
    if (const MemoEntry* hit = find()) return hit->space;
    admit = std::find(unadmitted_.begin(), unadmitted_.end(), hash) !=
            unadmitted_.end();
    if (!admit) {
      unadmitted_.push_back(hash);
      if (unadmitted_.size() > kPlanSpaceMemoCapacity) unadmitted_.pop_front();
    }
  }
  // Resolved outside the lock, so misses on different plans run in
  // parallel. A template's key is its feature row: a candidate's row is a
  // function of that row and its pick's VM counts (CandidateFeaturesInto).
  const PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  MIDAS_ASSIGN_OR_RETURN(
      std::shared_ptr<const PlanSpace> space,
      enumerator.Resolve(logical, [this](const QueryPlan& plan_template) {
        return ExtractFeatures(*federation_, plan_template);
      }));
  // A first sighting is not admitted: its space dies with the caller's
  // query, as it would without the memo, instead of evicting a space.
  if (!admit) return space;
  MemoEntry admitted{hash, logical, std::move(space), 0};
  std::lock_guard<std::mutex> lock(memo_mutex_);
  // Another thread may have admitted the same plan meanwhile: every
  // caller then shares the first space.
  if (const MemoEntry* hit = find()) return hit->space;
  admitted.last_used = ++memo_clock_;
  if (memo_.size() < kPlanSpaceMemoCapacity) {
    memo_.push_back(std::move(admitted));
    return memo_.back().space;
  }
  MemoEntry& victim = *std::min_element(
      memo_.begin(), memo_.end(), [](const MemoEntry& a, const MemoEntry& b) {
        return a.last_used < b.last_used;
      });
  // The victim lands in `admitted`, which is destroyed after the lock.
  std::swap(victim, admitted);
  return victim.space;
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Optimize(
    const QueryPlan& logical, const BatchCostPredictor& predictor,
    const QueryPolicy& policy) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");
  MIDAS_RETURN_IF_ERROR(ValidatePolicy(policy));
  const size_t arity = policy.weights.size();
  MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const PlanSpace> space,
                         FeatureSpace(logical));
  return Run(space, policy,
             [&](const CandidateChunk& chunk, Matrix* costs,
                 size_t* failed_row) -> Status {
               Matrix features(chunk.size(), chunk.keys.front()->size());
               for (size_t i = 0; i < chunk.size(); ++i) {
                 CandidateFeaturesInto(*chunk.keys[chunk.template_of[i]],
                                       chunk.nodes(i), features.RowData(i));
               }
               MIDAS_RETURN_IF_ERROR(predictor(features, costs));
               if (costs->rows() != features.rows()) {
                 return Status::InvalidArgument(
                     "batch predictor returned a wrong-sized batch");
               }
               for (size_t r = 0; r < costs->rows(); ++r) {
                 *failed_row = r;
                 MIDAS_RETURN_IF_ERROR(
                     CheckCostRow(costs->RowData(r), costs->cols(), arity));
               }
               return Status::OK();
             });
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Optimize(
    const QueryPlan& logical, const CostPredictor& predictor,
    const QueryPolicy& policy) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");
  MIDAS_RETURN_IF_ERROR(ValidatePolicy(policy));
  const size_t arity = policy.weights.size();
  // No key: the predictor reads the plan tree, so every candidate is
  // streamed and costed.
  const PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const PlanSpace> space,
                         enumerator.Resolve(logical));
  return Run(space, policy,
             [&](const CandidateChunk& chunk, Matrix* costs,
                 size_t* failed_row) -> Status {
               MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                                      space->Materialize(chunk.seqs));
               costs->Resize(plans.size(), arity);
               for (size_t i = 0; i < plans.size(); ++i) {
                 *failed_row = i;
                 MIDAS_ASSIGN_OR_RETURN(Vector c, predictor(plans[i]));
                 MIDAS_RETURN_IF_ERROR(CheckCostRow(c.data(), c.size(), arity));
                 std::copy(c.begin(), c.end(), costs->RowData(i));
               }
               return Status::OK();
             });
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Run(
    const std::shared_ptr<const PlanSpace>& space, const QueryPolicy& policy,
    const ChunkScorer& score) const {
  const size_t chunk_size = options_.stream_chunk_size == 0
                                ? MoqpOptions().stream_chunk_size
                                : options_.stream_chunk_size;
  const size_t num_shards = options_.shards == 0
                                ? ThreadPool::DefaultThreadCount()
                                : options_.shards;
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard> shards,
                         space->PartitionShards(num_shards));

  // kExhaustivePareto folds each chunk's Pareto survivors into a
  // shard-local archive. kWsm min-max-normalises over the full candidate
  // set and the NSGA variants evolve over it, so they keep every row, in
  // one table indexed by sequence number (EnumeratePhysical order).
  const bool fold = options_.algorithm == MoqpAlgorithm::kExhaustivePareto;
  std::vector<Vector> table(fold ? 0 : static_cast<size_t>(space->size()));

  // One independent pipeline per shard: stream its candidates, cost whole
  // chunks, fold or tabulate the rows under their global sequence numbers.
  // Shards share only the table, whose slots they write disjointly.
  struct ShardRun {
    ParetoArchive archive;
    Status status;
    uint64_t failed_seq = 0;
    uint64_t rows_costed = 0;
    size_t peak_resident = 0;
    double seconds = 0.0;
  };
  std::vector<ShardRun> runs(shards.size());
  const auto run_shard = [&](size_t s) -> Status {
    ShardRun& run = runs[s];
    const double started = MonotonicSeconds();
    run.status = shards[s].StreamCandidates(
        chunk_size, [&](const CandidateChunk& chunk) -> Status {
          run.rows_costed += chunk.size();
          run.peak_resident =
              fold ? std::max(run.peak_resident,
                              run.archive.size() + chunk.size())
                   : static_cast<size_t>(run.rows_costed);
          Matrix costs;
          size_t failed_row = 0;
          const Status scored = score(chunk, &costs, &failed_row);
          if (!scored.ok()) {
            run.failed_seq = chunk.seqs[failed_row];
            return scored;
          }
          if (!fold) {
            for (size_t i = 0; i < chunk.size(); ++i) {
              table[chunk.seqs[i]] = costs.Row(i);
            }
            return Status::OK();
          }
          // Reduce the chunk to its own distinct front first (thousands of
          // candidates, a few dozen survivors), then fold the survivors in
          // candidate order: the archive keeps first representatives and
          // evicts members a later chunk dominates.
          std::vector<size_t> evicted;
          for (size_t idx : DistinctParetoFrontRows(costs)) {
            const double* row = costs.RowData(idx);
            run.archive.InsertSequenced(Vector(row, row + costs.cols()),
                                        chunk.seqs[idx], &evicted);
          }
          return Status::OK();
        });
    run.seconds = MonotonicSeconds() - started;
    return Status::OK();  // failures are ranked by sequence below
  };
  ParallelForOptions parallel;  // a lone shard runs inline
  parallel.threads = num_shards;
  MIDAS_RETURN_IF_ERROR(ParallelFor(shards.size(), run_shard, parallel));

  // Each shard streams its strata in ascending order and stops at its own
  // first failure, so the lowest failed sequence over all shards is the
  // failure a single serial stream reaches first.
  const ShardRun* failed = nullptr;
  for (const ShardRun& run : runs) {
    if (!run.status.ok() &&
        (failed == nullptr || run.failed_seq < failed->failed_seq)) {
      failed = &run;
    }
  }
  if (failed != nullptr) return failed->status;

  MoqpResult result;
  result.candidates_examined = static_cast<size_t>(space->size());
  std::vector<ParetoArchive> archives;
  archives.reserve(runs.size());
  for (size_t s = 0; s < runs.size(); ++s) {
    ShardRun& run = runs[s];
    result.rows_costed += static_cast<size_t>(run.rows_costed);
    result.peak_resident_candidates += run.peak_resident;
    if (runs.size() > 1) {
      MoqpShardStats shard_stats;
      shard_stats.shard = s;
      shard_stats.rows_costed = run.rows_costed;
      shard_stats.front_size = run.archive.size();
      shard_stats.peak_resident_candidates = run.peak_resident;
      shard_stats.seconds = run.seconds;
      shard_stats.plans_per_sec =
          run.seconds > 0.0 ? static_cast<double>(run.rows_costed) / run.seconds
                            : 0.0;
      result.shard_stats.push_back(shard_stats);
    }
    archives.push_back(std::move(run.archive));
  }
  if (!fold) {
    // An alias stratum's rows are its leader's, rank for rank: the same
    // feature rows under a row-by-row pure predictor. The exhaustive fold
    // needs no copies, since its archive keeps the first representative
    // of each cost point and rejects every later duplicate.
    for (const PlanSpace::Stratum& stratum : space->strata()) {
      if (!stratum.aliased()) continue;
      for (uint64_t r = 0; r < stratum.feasible; ++r) {
        table[stratum.seq_base + r] = table[stratum.leader_base + r];
      }
    }
    result.peak_resident_candidates = table.size();
  }

  // The selected candidates' costs and sequence numbers, in result order.
  std::vector<uint64_t> seqs;
  switch (options_.algorithm) {
    case MoqpAlgorithm::kExhaustivePareto: {
      // Tree-merge the shard archives (associative + dedup-stable, so the
      // member set is independent of the tree shape) and restore the
      // serial arrival order via the sequence numbers.
      ParetoArchive merged = ParetoArchive::MergeTree(std::move(archives));
      merged.SortBySequence();
      merged.TakeMembers(&result.pareto_costs, &seqs);
      break;
    }

    case MoqpAlgorithm::kWsm: {
      // Figure 3, right branch: one scalar winner, no Pareto set.
      MIDAS_ASSIGN_OR_RETURN(size_t best, WsmSelect(table, policy.weights));
      result.pareto_costs.push_back(std::move(table[best]));
      seqs.push_back(best);
      break;
    }

    case MoqpAlgorithm::kNsga2:
    case MoqpAlgorithm::kNsgaG: {
      // Evolve over the sequence space; the evaluator reads the table.
      ConfigurationProblem problem(
          "qep-selection", {table.size()}, policy.weights.size(),
          [&table](const std::vector<size_t>& cfg) { return table[cfg[0]]; });
      MooResult moo;
      if (options_.algorithm == MoqpAlgorithm::kNsga2) {
        MIDAS_ASSIGN_OR_RETURN(moo, Nsga2(options_.nsga2).Optimize(problem));
      } else {
        MIDAS_ASSIGN_OR_RETURN(moo, NsgaG(options_.nsga_g).Optimize(problem));
      }
      // The evolved front's distinct cost points, first representative
      // each, in front order: the archive is sequenced by offer rank.
      ParetoArchive front;
      std::vector<uint64_t> offered;
      std::vector<size_t> evicted;
      for (size_t i : moo.front) {
        const size_t seq = problem.Decode(moo.population[i].variables)[0];
        front.InsertSequenced(table[seq], offered.size(), &evicted);
        offered.push_back(seq);
      }
      std::vector<uint64_t> ranks;
      front.TakeMembers(&result.pareto_costs, &ranks);
      for (uint64_t rank : ranks) seqs.push_back(offered[rank]);
      break;
    }
  }

  // Plans only for the selected candidates, then Algorithm 2.
  MIDAS_ASSIGN_OR_RETURN(result.pareto_plans, space->Materialize(seqs));
  MIDAS_ASSIGN_OR_RETURN(result.chosen,
                         BestInPareto(result.pareto_costs, policy));
  return result;
}

}  // namespace midas

#include "ires/moo_optimizer.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>
#include <unordered_set>
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

// A NaN cost neither dominates nor is dominated, and an infinite one
// wins or loses Algorithm 2 by accident: the costing stage fails closed.
Status CheckFinite(const double* costs, size_t n) {
  for (size_t i = 0; i < n; ++i) {
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
      options_(std::move(options)),
      cache_(std::make_shared<FeatureCostCache>(options_.cache_shards)) {}

StatusOr<MoqpResult> MultiObjectiveOptimizer::FromCandidates(
    std::vector<QueryPlan> plans, std::vector<Vector> costs,
    const QueryPolicy& policy) const {
  MoqpResult result;
  result.candidates_examined = plans.size();
  const std::vector<size_t> front =
      ParetoFrontIndices(costs, options_.threads);
  result.pareto_plans.reserve(front.size());
  result.pareto_costs.reserve(front.size());
  // Equivalent QEPs can share identical predicted costs (e.g., commuted
  // joins over the same features); keep one representative per cost point.
  std::unordered_set<Vector, VectorHash> seen_costs;
  seen_costs.reserve(front.size());
  for (size_t idx : front) {
    if (!seen_costs.insert(costs[idx]).second) continue;
    result.pareto_plans.push_back(std::move(plans[idx]));
    result.pareto_costs.push_back(std::move(costs[idx]));
  }
  MIDAS_ASSIGN_OR_RETURN(result.chosen,
                         BestInPareto(result.pareto_costs, policy));
  return result;
}

void MultiObjectiveOptimizer::OnSnapshotPublished(uint64_t epoch) const {
  PruneStaleEpochs(epoch);
}

void MultiObjectiveOptimizer::PruneStaleEpochs(uint64_t snapshot_epoch) const {
  // A concurrent optimize still pinned to an older epoch only loses warm
  // entries (it re-predicts); correctness comes from the epoch keying.
  if (options_.cache_predictions && snapshot_epoch != 0) {
    cache_->PruneOtherEpochs(snapshot_epoch);
  }
}

StatusOr<std::vector<Vector>> MultiObjectiveOptimizer::PredictCandidateCosts(
    const std::vector<QueryPlan>& plans, const CostPredictor& predictor,
    size_t arity, uint64_t epoch, uint64_t cache_namespace,
    PredictionStats* stats) const {
  ParallelForOptions parallel;
  parallel.threads = options_.threads;
  std::vector<Vector> costs(plans.size());

  if (!options_.cache_predictions) {
    MIDAS_RETURN_IF_ERROR(ParallelFor(
        plans.size(),
        [&](size_t i) -> Status {
          MIDAS_ASSIGN_OR_RETURN(Vector c, predictor(plans[i]));
          if (c.size() != arity) {
            return Status::InvalidArgument(
                "predictor/policy arity mismatch");
          }
          MIDAS_RETURN_IF_ERROR(CheckFinite(c.data(), c.size()));
          costs[i] = std::move(c);
          return Status::OK();
        },
        parallel));
    stats->predictor_calls = plans.size();
    return costs;
  }

  // Feature-keyed memoisation: commuted-join QEPs that map onto the same
  // feature vector are predicted once (Example 3.1's equivalent
  // configurations collapse to the distinct VM-count combinations), and
  // the persistent cache carries estimates across Optimize calls.
  std::vector<Vector> keys(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    MIDAS_ASSIGN_OR_RETURN(keys[i], ExtractFeatures(*federation_, plans[i]));
  }
  std::unordered_map<Vector, size_t, VectorHash> slot_by_feature;
  slot_by_feature.reserve(plans.size());
  std::vector<size_t> representative;  // first plan index per unique slot
  std::vector<size_t> slot_of_plan(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) {
    const auto [it, inserted] =
        slot_by_feature.emplace(keys[i], representative.size());
    if (inserted) representative.push_back(i);
    slot_of_plan[i] = it->second;
  }

  std::vector<Vector> unique_costs(representative.size());
  std::vector<size_t> to_predict;
  for (size_t s = 0; s < representative.size(); ++s) {
    if (auto cached =
            cache_->Lookup(keys[representative[s]], epoch, cache_namespace)) {
      unique_costs[s] = std::move(*cached);
      ++stats->cache_hits;
    } else {
      to_predict.push_back(s);
      ++stats->cache_misses;
    }
  }
  MIDAS_RETURN_IF_ERROR(ParallelFor(
      to_predict.size(),
      [&](size_t k) -> Status {
        const size_t s = to_predict[k];
        MIDAS_ASSIGN_OR_RETURN(Vector c, predictor(plans[representative[s]]));
        MIDAS_RETURN_IF_ERROR(CheckFinite(c.data(), c.size()));
        unique_costs[s] = std::move(c);
        return Status::OK();
      },
      parallel));
  stats->predictor_calls = to_predict.size();
  for (size_t s : to_predict) {
    cache_->Insert(keys[representative[s]], unique_costs[s], epoch,
                   cache_namespace);
  }

  for (size_t s = 0; s < unique_costs.size(); ++s) {
    // Checked after the fact so cached entries from an earlier predictor
    // arity are rejected too.
    if (unique_costs[s].size() != arity) {
      return Status::InvalidArgument("predictor/policy arity mismatch");
    }
  }
  for (size_t i = 0; i < plans.size(); ++i) {
    costs[i] = unique_costs[slot_of_plan[i]];
  }
  return costs;
}

Status MultiObjectiveOptimizer::ScoreFeatureRows(
    const Matrix& features, const BatchCostPredictor& predictor, size_t arity,
    uint64_t epoch, uint64_t cache_namespace, size_t threads, Matrix* costs,
    PredictionStats* stats) const {
  const size_t n = features.rows();
  const size_t n_features = features.cols();
  costs->Resize(n, arity);
  if (n == 0) return Status::OK();

  // Rows that reach the predictor: every row without the cache; with it,
  // candidates sharing a feature vector collapse onto one slot and only
  // the first row of each slot absent from the cache is scored.
  const bool cached = options_.cache_predictions;
  std::vector<size_t> to_score;
  std::vector<size_t> slot_of_row;     // cache only: row -> slot
  std::vector<Vector> slot_keys;       // cache only: slot -> feature vector
  std::vector<Vector> slot_costs;      // cache only: slot -> cost vector
  std::vector<size_t> slot_of_scored;  // cache only: scored row -> slot
  if (!cached) {
    to_score.resize(n);
    for (size_t r = 0; r < n; ++r) to_score[r] = r;
  } else {
    std::unordered_map<Vector, size_t, VectorHash> slot_by_feature;
    slot_by_feature.reserve(n);
    slot_of_row.resize(n);
    std::vector<size_t> representative;
    for (size_t r = 0; r < n; ++r) {
      const double* row = features.RowData(r);
      const auto [it, inserted] = slot_by_feature.emplace(
          Vector(row, row + n_features), slot_keys.size());
      if (inserted) {
        slot_keys.push_back(it->first);
        representative.push_back(r);
      }
      slot_of_row[r] = it->second;
    }
    slot_costs.resize(slot_keys.size());
    for (size_t s = 0; s < slot_keys.size(); ++s) {
      if (auto hit = cache_->Lookup(slot_keys[s], epoch, cache_namespace)) {
        slot_costs[s] = std::move(*hit);
        ++stats->cache_hits;
      } else {
        to_score.push_back(representative[s]);
        slot_of_scored.push_back(s);
        ++stats->cache_misses;
      }
    }
  }

  // Score batch_size-row blocks concurrently. Each block gathers its
  // feature rows into one SoA matrix and receives one cost row per
  // feature row; block boundaries never affect the scored values, only
  // how often the predictor amortises its per-batch setup.
  const size_t rows = to_score.size();
  size_t block_rows = options_.batch_size;
  if (block_rows == 0) {
    const size_t t = threads == 0 ? ThreadPool::DefaultThreadCount() : threads;
    block_rows = (rows + t - 1) / t;
  }
  block_rows = std::max<size_t>(1, block_rows);
  const size_t n_blocks = (rows + block_rows - 1) / block_rows;
  Matrix scored_rows;
  Matrix* scored_out = cached ? &scored_rows : costs;
  scored_out->Resize(rows, arity);
  ParallelForOptions parallel;
  parallel.threads = threads;
  MIDAS_RETURN_IF_ERROR(ParallelFor(
      n_blocks,
      [&](size_t c) -> Status {
        const size_t begin = c * block_rows;
        const size_t end = std::min(begin + block_rows, rows);
        Matrix x(end - begin, n_features);
        for (size_t r = begin; r < end; ++r) {
          const double* row = features.RowData(to_score[r]);
          std::copy(row, row + n_features, x.RowData(r - begin));
        }
        Matrix scored;
        MIDAS_RETURN_IF_ERROR(predictor(x, &scored));
        if (scored.rows() != x.rows()) {
          return Status::InvalidArgument(
              "batch predictor returned a wrong-sized batch");
        }
        if (scored.cols() != arity) {
          return Status::InvalidArgument("predictor/policy arity mismatch");
        }
        for (size_t r = 0; r < scored.rows(); ++r) {
          MIDAS_RETURN_IF_ERROR(CheckFinite(scored.RowData(r), arity));
        }
        for (size_t r = begin; r < end; ++r) {
          std::copy(scored.RowData(r - begin),
                    scored.RowData(r - begin) + arity, scored_out->RowData(r));
        }
        return Status::OK();
      },
      parallel));
  stats->predictor_calls += rows;
  if (!cached) return Status::OK();

  for (size_t k = 0; k < rows; ++k) {
    const size_t s = slot_of_scored[k];
    slot_costs[s] = scored_rows.Row(k);
    cache_->Insert(slot_keys[s], slot_costs[s], epoch, cache_namespace);
  }
  // Checked after the fact so cached entries from an earlier predictor
  // arity are rejected too.
  for (const Vector& cost : slot_costs) {
    if (cost.size() != arity) {
      return Status::InvalidArgument("predictor/policy arity mismatch");
    }
  }
  for (size_t r = 0; r < n; ++r) {
    const Vector& cost = slot_costs[slot_of_row[r]];
    std::copy(cost.begin(), cost.end(), costs->RowData(r));
  }
  return Status::OK();
}

StatusOr<std::vector<Vector>>
MultiObjectiveOptimizer::PredictCandidateCostsBatched(
    const std::vector<QueryPlan>& plans, const BatchCostPredictor& predictor,
    size_t arity, uint64_t epoch, uint64_t cache_namespace,
    PredictionStats* stats) const {
  ParallelForOptions parallel;
  parallel.threads = options_.threads;
  // One ExtractFeatures pass over every candidate, in stable candidate
  // order (each index writes its own slot, so the parallel pass is
  // bit-identical to a serial one).
  std::vector<Vector> rows(plans.size());
  MIDAS_RETURN_IF_ERROR(ParallelFor(
      plans.size(),
      [&](size_t i) -> Status {
        MIDAS_ASSIGN_OR_RETURN(rows[i],
                               ExtractFeatures(*federation_, plans[i]));
        return Status::OK();
      },
      parallel));
  MIDAS_ASSIGN_OR_RETURN(Matrix features, Matrix::FromRows(rows));
  Matrix scored;
  MIDAS_RETURN_IF_ERROR(ScoreFeatureRows(features, predictor, arity, epoch,
                                         cache_namespace, options_.threads,
                                         &scored, stats));
  std::vector<Vector> costs(plans.size());
  for (size_t i = 0; i < plans.size(); ++i) costs[i] = scored.Row(i);
  return costs;
}

Status MultiObjectiveOptimizer::FoldCandidateChunk(
    const CandidateChunk& chunk, const BatchCostPredictor& predictor,
    size_t arity, uint64_t epoch, uint64_t cache_namespace, size_t threads,
    ParetoArchive* archive, PredictionStats* stats) const {
  // Feature rows straight from the closed-form candidates: one
  // ExtractFeatures per template, then each pick's VM counts.
  std::vector<Vector> template_rows(chunk.templates.size());
  for (size_t t = 0; t < chunk.templates.size(); ++t) {
    MIDAS_ASSIGN_OR_RETURN(template_rows[t],
                           ExtractFeatures(*federation_, *chunk.templates[t]));
  }
  Matrix features(chunk.size(), template_rows.front().size());
  for (size_t i = 0; i < chunk.size(); ++i) {
    CandidateFeaturesInto(template_rows[chunk.template_of[i]], chunk.nodes(i),
                          features.RowData(i));
  }
  Matrix costs;
  MIDAS_RETURN_IF_ERROR(ScoreFeatureRows(features, predictor, arity, epoch,
                                         cache_namespace, threads, &costs,
                                         stats));
  // Reduce the chunk to its own distinct front first (an online pass over
  // the flat cost rows: thousands of candidates, a few dozen survivors),
  // then fold the survivors in candidate order: the archive keeps first
  // representatives and evicts members a later chunk dominates,
  // reproducing FromCandidates exactly.
  std::vector<size_t> evicted;
  for (size_t idx : DistinctParetoFrontRows(costs)) {
    const double* row = costs.RowData(idx);
    archive->InsertSequenced(Vector(row, row + arity), chunk.seqs[idx],
                             &evicted);
  }
  return Status::OK();
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::RunAlgorithm(
    std::vector<QueryPlan> plans, std::vector<Vector> costs,
    const QueryPolicy& policy) const {
  switch (options_.algorithm) {
    case MoqpAlgorithm::kExhaustivePareto:
      return FromCandidates(std::move(plans), std::move(costs), policy);

    case MoqpAlgorithm::kWsm: {
      // Figure 3, right branch: one scalar winner, no Pareto set.
      MIDAS_ASSIGN_OR_RETURN(size_t best, WsmSelect(costs, policy.weights));
      MoqpResult result;
      result.candidates_examined = plans.size();
      result.pareto_plans.push_back(std::move(plans[best]));
      result.pareto_costs.push_back(std::move(costs[best]));
      result.chosen = 0;
      return result;
    }

    case MoqpAlgorithm::kNsga2:
    case MoqpAlgorithm::kNsgaG: {
      // Evolve over the candidate index space; the evaluator reads the
      // predicted cost table.
      ConfigurationProblem problem(
          "qep-selection", {plans.size()}, costs.empty() ? 0 : costs[0].size(),
          [&costs](const std::vector<size_t>& cfg) { return costs[cfg[0]]; });
      MooResult moo;
      if (options_.algorithm == MoqpAlgorithm::kNsga2) {
        Nsga2 nsga2(options_.nsga2);
        MIDAS_ASSIGN_OR_RETURN(moo, nsga2.Optimize(problem));
      } else {
        NsgaG nsga_g(options_.nsga_g);
        MIDAS_ASSIGN_OR_RETURN(moo, nsga_g.Optimize(problem));
      }
      // Collect the distinct candidate plans on the evolved front.
      std::vector<uint8_t> seen(plans.size(), 0);
      std::vector<QueryPlan> front_plans;
      std::vector<Vector> front_costs;
      for (size_t i : moo.front) {
        const size_t plan_idx =
            problem.Decode(moo.population[i].variables)[0];
        if (seen[plan_idx] == 0) {
          seen[plan_idx] = 1;
          front_plans.push_back(plans[plan_idx]);
          front_costs.push_back(costs[plan_idx]);
        }
      }
      MoqpResult result;
      MIDAS_ASSIGN_OR_RETURN(
          result, FromCandidates(std::move(front_plans),
                                 std::move(front_costs), policy));
      result.candidates_examined = plans.size();
      return result;
    }
  }
  return Status::Internal("unhandled MOQP algorithm");
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Optimize(
    const QueryPlan& logical, const CostPredictor& predictor,
    const QueryPolicy& policy, uint64_t snapshot_epoch,
    uint64_t cache_namespace) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");

  PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                         enumerator.EnumeratePhysical(logical));
  const size_t candidates = plans.size();

  PredictionStats stats;
  MIDAS_ASSIGN_OR_RETURN(
      std::vector<Vector> costs,
      PredictCandidateCosts(plans, predictor, policy.weights.size(),
                            snapshot_epoch, cache_namespace, &stats));

  MIDAS_ASSIGN_OR_RETURN(
      MoqpResult result,
      RunAlgorithm(std::move(plans), std::move(costs), policy));
  stats.ApplyTo(&result, snapshot_epoch);
  result.peak_resident_candidates = candidates;
  return result;
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::Optimize(
    const QueryPlan& logical, const BatchCostPredictor& predictor,
    const QueryPolicy& policy, uint64_t snapshot_epoch,
    uint64_t cache_namespace) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");

  PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                         enumerator.EnumeratePhysical(logical));
  const size_t candidates = plans.size();

  PredictionStats stats;
  MIDAS_ASSIGN_OR_RETURN(
      std::vector<Vector> costs,
      PredictCandidateCostsBatched(plans, predictor, policy.weights.size(),
                                   snapshot_epoch, cache_namespace, &stats));

  MIDAS_ASSIGN_OR_RETURN(
      MoqpResult result,
      RunAlgorithm(std::move(plans), std::move(costs), policy));
  stats.ApplyTo(&result, snapshot_epoch);
  result.peak_resident_candidates = candidates;
  return result;
}

StatusOr<MoqpResult> MultiObjectiveOptimizer::OptimizeStreaming(
    const QueryPlan& logical, const BatchCostPredictor& predictor,
    const QueryPolicy& policy, uint64_t snapshot_epoch,
    uint64_t cache_namespace) const {
  if (!predictor) return Status::InvalidArgument("null cost predictor");
  if (options_.algorithm != MoqpAlgorithm::kExhaustivePareto) {
    // kWsm min-max-normalises every metric over the full candidate set
    // and the NSGA variants evolve over the full cost table, so neither
    // can be folded chunk by chunk without changing the answer.
    return Optimize(logical, predictor, policy, snapshot_epoch,
                    cache_namespace);
  }

  PlanEnumerator enumerator(federation_, catalog_, options_.enumerator);
  const size_t arity = policy.weights.size();
  const size_t chunk_size = options_.stream_chunk_size == 0
                                ? MoqpOptions().stream_chunk_size
                                : options_.stream_chunk_size;
  const size_t num_shards = options_.shards == 0
                                ? ThreadPool::DefaultThreadCount()
                                : options_.shards;
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard> shards,
                         enumerator.PartitionShards(logical, num_shards));

  // One independent pipeline per shard: stream its candidates as feature
  // rows, score whole chunks against the pinned snapshot epoch, fold each
  // chunk's survivors into a shard-local archive keyed by global sequence
  // numbers. No plan tree is built for a candidate here. Shards share
  // only the (lock-striped, epoch-keyed) feature cache; everything else
  // is shard-private, so the only concurrency effect is which shard
  // publishes a shared feature vector first — the cost values are a pure
  // function of the features at this epoch.
  struct ShardRun {
    ParetoArchive archive;
    PredictionStats stats;
    uint64_t examined = 0;
    size_t peak_resident = 0;
    double seconds = 0.0;
  };
  std::vector<ShardRun> runs(shards.size());
  // A lone shard's stages use options.threads; concurrent shards run
  // theirs serially because the shard fan-out already owns the workers.
  const size_t inner_threads = shards.size() == 1 ? options_.threads : 1;
  const auto run_shard = [&](size_t s) -> Status {
    ShardRun& run = runs[s];
    const double started = MonotonicSeconds();
    MIDAS_RETURN_IF_ERROR(enumerator.StreamCandidates(
        logical, shards[s], chunk_size,
        [&](const CandidateChunk& chunk) -> Status {
          run.examined += chunk.size();
          run.peak_resident =
              std::max(run.peak_resident, run.archive.size() + chunk.size());
          return FoldCandidateChunk(chunk, predictor, arity, snapshot_epoch,
                                    cache_namespace, inner_threads,
                                    &run.archive, &run.stats);
        }));
    run.seconds = MonotonicSeconds() - started;
    return Status::OK();
  };
  ParallelForOptions parallel;  // a lone shard runs inline
  parallel.threads = num_shards;
  MIDAS_RETURN_IF_ERROR(ParallelFor(shards.size(), run_shard, parallel));

  MoqpResult result;
  PredictionStats stats;
  std::vector<ParetoArchive> archives;
  archives.reserve(runs.size());
  for (size_t s = 0; s < runs.size(); ++s) {
    ShardRun& run = runs[s];
    stats.MergeFrom(run.stats);
    result.candidates_examined += static_cast<size_t>(run.examined);
    result.peak_resident_candidates += run.peak_resident;
    if (runs.size() > 1) {
      MoqpShardStats shard_stats;
      shard_stats.shard = s;
      shard_stats.candidates_examined = run.examined;
      shard_stats.front_size = run.archive.size();
      shard_stats.peak_resident_candidates = run.peak_resident;
      shard_stats.seconds = run.seconds;
      shard_stats.plans_per_sec =
          run.seconds > 0.0 ? static_cast<double>(run.examined) / run.seconds
                            : 0.0;
      result.shard_stats.push_back(shard_stats);
    }
    archives.push_back(std::move(run.archive));
  }

  // Tree-merge the shard archives (associative + dedup-stable, so the
  // member set is independent of the tree shape) and restore the serial
  // arrival order via the global sequence numbers: from here on the
  // result is byte-for-byte the single-stream one. Only the front's plans
  // are ever built.
  ParetoArchive merged = ParetoArchive::MergeTree(std::move(archives));
  merged.SortBySequence();
  std::vector<uint64_t> seqs;
  merged.TakeMembers(&result.pareto_costs, &seqs);
  MIDAS_ASSIGN_OR_RETURN(result.pareto_plans,
                         enumerator.Materialize(logical, seqs));
  MIDAS_ASSIGN_OR_RETURN(result.chosen,
                         BestInPareto(result.pareto_costs, policy));
  stats.ApplyTo(&result, snapshot_epoch);
  return result;
}

}  // namespace midas

#ifndef MIDAS_IRES_MOO_OPTIMIZER_H_
#define MIDAS_IRES_MOO_OPTIMIZER_H_

#include <functional>
#include <memory>
#include <vector>

#include "federation/federation.h"
#include "ires/cost_cache.h"
#include "optimizer/best_in_pareto.h"
#include "optimizer/nsga2.h"
#include "optimizer/nsga_g.h"
#include "optimizer/pareto_archive.h"
#include "query/enumerator.h"

namespace midas {

/// Search strategy of the Multi-Objective Optimizer module.
enum class MoqpAlgorithm {
  /// Enumerate every physical plan, extract the exact Pareto front,
  /// choose with Algorithm 2. Tractable for the paper's 2-table queries.
  kExhaustivePareto,
  /// NSGA-II over the candidate set (for large plan spaces), then
  /// Algorithm 2 on the evolved front.
  kNsga2,
  /// NSGA-G variant of the above.
  kNsgaG,
  /// Figure 3's baseline: scalarise with the Weighted Sum Model up front
  /// and return only the argmin plan (no Pareto set).
  kWsm,
};

std::string MoqpAlgorithmName(MoqpAlgorithm algorithm);

struct MoqpOptions {
  MoqpAlgorithm algorithm = MoqpAlgorithm::kExhaustivePareto;
  EnumeratorOptions enumerator;
  Nsga2Options nsga2;
  NsgaGOptions nsga_g;
  /// Concurrent chunks for the candidate cost-prediction loop and the
  /// exhaustive Pareto front extraction: 1 = serial (default), 0 = the
  /// process-wide default parallelism. Candidate order, results and
  /// first-error semantics are preserved at any value; the cost predictor
  /// must be thread-safe when != 1.
  size_t threads = 1;
  /// Memoise predictor calls in a FeatureCostCache keyed by the plan's
  /// extracted feature vector, shared across Optimize calls on this
  /// optimizer. Only sound when the predictor is a pure function of the
  /// features (true for the Modelling/DREAM estimators; NOT true for the
  /// raw execution simulator, whose costs also depend on join shape).
  bool cache_predictions = false;
  /// Rows per chunk of the *batched* costing stage (the Optimize overload
  /// taking a BatchCostPredictor): candidates are scored `batch_size`
  /// feature rows at a time, chunks running concurrently on the thread
  /// pool. Bigger chunks amortise per-batch estimator setup (DREAM refits
  /// Algorithm 1 once per chunk) but leave fewer chunks to parallelise;
  /// 0 splits the batch evenly across the resolved thread count. Results
  /// are independent of the chunking.
  size_t batch_size = 1024;
  /// Lock stripes of the shared FeatureCostCache (rounded up to a power of
  /// two). More shards cut contention on warm parallel lookups; counters
  /// and contents behave identically at any value.
  size_t cache_shards = FeatureCostCache::kDefaultShards;
  /// Candidates per chunk of OptimizeStreaming's candidate stream. A
  /// chunk is a block of feature rows (no plan trees), so the pipeline
  /// holds at most the online Pareto archive plus one chunk of this many
  /// rows: smaller values tighten the O(front + chunk) working set while
  /// larger values amortise the batched scoring setup over more rows. 0
  /// falls back to the default. The produced result is independent of the
  /// value.
  size_t stream_chunk_size = 4096;
  /// Disjoint candidate-stream pipelines of OptimizeStreaming: the plan
  /// space is partitioned into this many shards
  /// (PlanEnumerator::PartitionShards) that each run the whole
  /// stream → batched-cost → Pareto-fold pipeline concurrently on the
  /// thread pool against the pinned snapshot epoch, after which the shard
  /// archives are tree-merged and re-ordered into the serial arrival
  /// sequence. 1 = one stream (default; still streams); 0 = the
  /// process-wide default parallelism. The produced result is
  /// bit-identical at any value; per-shard pipeline metrics land in
  /// MoqpResult::shard_stats. Only kExhaustivePareto streams — the other
  /// algorithms delegate to the materialized path, which ignores this
  /// knob. The batch predictor must be thread-safe when != 1.
  size_t shards = 1;
};

/// \brief Pipeline metrics of one candidate-stream shard of the sharded
/// OptimizeStreaming path (MoqpOptions::shards): timings are per shard,
/// so plans/sec here exposes stragglers the aggregate result hides.
struct MoqpShardStats {
  /// Shard id, 0-based (matches the PartitionShards output order).
  size_t shard = 0;
  /// Candidate plans this shard enumerated and costed.
  uint64_t candidates_examined = 0;
  /// Members of the shard-local archive when the shard finished
  /// (pre-merge front size).
  size_t front_size = 0;
  /// High-water mark of this shard's resident candidates (its archive
  /// front plus one in-flight chunk of feature rows).
  size_t peak_resident_candidates = 0;
  /// Wall-clock seconds of the shard's stream→cost→fold pipeline.
  double seconds = 0.0;
  /// candidates_examined / seconds (0 when the duration underflows the
  /// clock).
  double plans_per_sec = 0.0;
};

/// \brief Outcome of one MOQP optimisation.
struct MoqpResult {
  /// Pareto plan set (for kWsm this holds just the selected plan).
  std::vector<QueryPlan> pareto_plans;
  /// Predicted cost vectors aligned with pareto_plans.
  std::vector<Vector> pareto_costs;
  /// Index of the plan Algorithm 2 picked for the user policy.
  size_t chosen = 0;
  /// Number of physical plans considered. Aggregation: SUM across
  /// concurrent pipelines — every candidate is examined by exactly one
  /// shard, so the sum equals the serial count.
  size_t candidates_examined = 0;
  /// Predictor invocations this call actually performed (equals
  /// candidates_examined without the feature cache; with it, only the
  /// distinct feature vectors absent from the cache are predicted).
  /// Aggregation: SUM of rows scored across concurrent pipelines.
  size_t predictor_calls = 0;
  /// Feature-cache hits/misses of this call (0/0 when caching is off).
  /// Aggregated identically on every pipeline — scalar, batched,
  /// streaming and sharded — always as a SUM over the pipeline's stages.
  /// Per pipeline, cache_hits + cache_misses == distinct feature vectors
  /// it examined, and predictor_calls == cache_misses whenever caching is
  /// on. Under concurrent shards those invariants hold per shard and
  /// therefore for the sums, but the hit/miss *split* is not
  /// deterministic: two shards can each miss the same vector before
  /// either publishes it, turning a would-be hit into a second miss (the
  /// cost *values* are unaffected — the predictor is a pure function of
  /// the features at a fixed epoch).
  size_t cache_hits = 0;
  size_t cache_misses = 0;
  /// Estimator snapshot epoch the costs were predicted against, as passed
  /// to Optimize (0 = unversioned legacy caller).
  uint64_t snapshot_epoch = 0;
  /// High-water mark of simultaneously resident candidates: the whole
  /// candidate set (as plans) for the materialize-everything paths; for
  /// OptimizeStreaming the archive front plus one in-flight chunk, both
  /// counted as feature/cost rows (the streaming path builds plans only
  /// for the final front). Aggregation under sharding: SUM of the
  /// per-shard peaks (shard_stats breaks it down) — the worst case when
  /// every shard hits its high-water mark simultaneously, still
  /// O(front + shards × chunk); the merge stage holds at most the shard
  /// fronts, which the same bound covers.
  size_t peak_resident_candidates = 0;
  /// Per-shard pipeline metrics of the sharded OptimizeStreaming path;
  /// empty for the materialized paths and for a single stream
  /// (shards == 1).
  std::vector<MoqpShardStats> shard_stats;

  const QueryPlan& chosen_plan() const { return pareto_plans[chosen]; }
  const Vector& chosen_costs() const { return pareto_costs[chosen]; }
};

/// \brief IReS' Multi-Objective Optimizer with the paper's pipeline:
/// enumerate equivalent QEPs, predict each plan's multi-metric cost with
/// the Modelling estimator, find the Pareto plan set, and select the final
/// plan with BestInPareto (Algorithm 2) under the user policy.
class MultiObjectiveOptimizer {
 public:
  /// Predicts the cost vector of one annotated physical plan. With either
  /// predictor kind, a non-finite cost fails the optimization
  /// (FailedPrecondition) instead of entering the Pareto front.
  using CostPredictor = std::function<StatusOr<Vector>(const QueryPlan&)>;

  /// Scores a batch of candidates at once: `features` holds one extracted
  /// feature row per candidate (ires/features.h layout) and the predictor
  /// fills *costs with one row per feature row, one column per metric.
  /// Must be a pure function of the features — the streaming pipeline
  /// never builds the candidates' plans, and purity is what makes the
  /// prediction cache sound for it.
  using BatchCostPredictor =
      std::function<Status(const Matrix& features, Matrix* costs)>;

  MultiObjectiveOptimizer(const Federation* federation,
                          const Catalog* catalog,
                          MoqpOptions options = MoqpOptions());

  /// \param snapshot_epoch epoch of the EstimatorSnapshot the predictor is
  /// pinned to. Cached costs are keyed by it, so an optimization running
  /// against epoch N never reuses costs predicted at any other epoch —
  /// required for a shared cache under concurrent Record traffic. Callers
  /// with an unversioned predictor keep the default 0.
  /// \param cache_namespace extra prediction-cache key component for
  /// predictors that are feature-pure only within a context (e.g. a
  /// tenant's history scope — two tenants pinned to the SAME epoch map
  /// one feature vector to different costs, so a multi-tenant service
  /// must pass a per-scope namespace or tenants poison each other's
  /// cached estimates). Callers with one global predictor keep 0.
  StatusOr<MoqpResult> Optimize(const QueryPlan& logical,
                                const CostPredictor& predictor,
                                const QueryPolicy& policy,
                                uint64_t snapshot_epoch = 0,
                                uint64_t cache_namespace = 0) const;

  /// Batched pipeline: enumerate, extract every candidate's features once
  /// into a single SoA matrix (stable candidate order), score
  /// options.batch_size-row chunks concurrently through `predictor`, then
  /// run Pareto extraction and Algorithm 2 exactly as the per-plan path.
  /// MoqpResult::predictor_calls counts scored *rows*, so the two paths
  /// report comparable work.
  StatusOr<MoqpResult> Optimize(const QueryPlan& logical,
                                const BatchCostPredictor& predictor,
                                const QueryPolicy& policy,
                                uint64_t snapshot_epoch = 0,
                                uint64_t cache_namespace = 0) const;

  /// Streaming pipeline over the candidate stream
  /// (PlanEnumerator::StreamCandidates): each chunk of
  /// options.stream_chunk_size candidates arrives as feature rows with
  /// global sequence numbers, is scored through the batched costing stage
  /// (same dedup/cache slots as the materialized path) and has its Pareto
  /// survivors folded into an online archive keyed by sequence number.
  /// Only the final front is materialized into plans
  /// (PlanEnumerator::Materialize), so peak memory is O(front + chunk)
  /// rows and no plan tree is built for any other candidate; the result
  /// is identical to the materialized batched Optimize. options.shards
  /// partitions the stream into concurrent pipelines whose archives are
  /// tree-merged and re-sequenced afterwards — bit-identical at any shard
  /// count. Only kExhaustivePareto can be stream-folded; kWsm (whose
  /// scalarisation min-max-normalises over the full candidate set) and
  /// the NSGA variants (which evolve over the full cost table)
  /// transparently fall back to the materialized path.
  StatusOr<MoqpResult> OptimizeStreaming(const QueryPlan& logical,
                                         const BatchCostPredictor& predictor,
                                         const QueryPolicy& policy,
                                         uint64_t snapshot_epoch = 0,
                                         uint64_t cache_namespace = 0) const;

  /// The feature-keyed prediction memo (populated only when
  /// options.cache_predictions is set). Shared by copies of this optimizer
  /// and persistent across Optimize calls, so repeated queries and policy
  /// re-targeting reuse earlier estimates.
  const FeatureCostCache& prediction_cache() const { return *cache_; }
  void ClearPredictionCache() { cache_->Clear(); }

  /// Publication hook for long-lived services: evicts prediction-cache
  /// entries from every epoch other than the newly published one, so a
  /// server's cache stays bounded by one epoch's working set instead of
  /// accreting an entry set per feedback batch (cumulative evictions in
  /// prediction_cache().pruned()). Register via
  /// SnapshotPublisher::AddPublishListener; safe concurrently with running
  /// optimizations — one still pinned to an older epoch only loses warm
  /// entries and re-predicts. No-op when caching is off or epoch is 0.
  void OnSnapshotPublished(uint64_t epoch) const;

 private:
  struct PredictionStats {
    size_t predictor_calls = 0;
    size_t cache_hits = 0;
    size_t cache_misses = 0;

    /// Accumulates another pipeline's counters (streaming folds one per
    /// shard; each pipeline's stages add into their own stats).
    void MergeFrom(const PredictionStats& other) {
      predictor_calls += other.predictor_calls;
      cache_hits += other.cache_hits;
      cache_misses += other.cache_misses;
    }

    /// Copies the aggregated counters into a result — the single point
    /// every pipeline reports through, so the scalar, batched and
    /// streaming paths can never drift apart in how they account.
    void ApplyTo(MoqpResult* result, uint64_t snapshot_epoch) const {
      result->predictor_calls = predictor_calls;
      result->cache_hits = cache_hits;
      result->cache_misses = cache_misses;
      result->snapshot_epoch = snapshot_epoch;
    }
  };

  /// Predicts every candidate's cost vector, in candidate order, using
  /// options.threads concurrent chunks and (optionally) the feature cache
  /// at `epoch`.
  StatusOr<std::vector<Vector>> PredictCandidateCosts(
      const std::vector<QueryPlan>& plans, const CostPredictor& predictor,
      size_t arity, uint64_t epoch, uint64_t cache_namespace,
      PredictionStats* stats) const;

  /// The batched costing stage shared by every BatchCostPredictor path:
  /// scores the rows of `features` into *costs (one row per feature row,
  /// `arity` columns) in options.batch_size-row blocks on `threads`
  /// workers. With options.cache_predictions, rows sharing a feature
  /// vector share one slot and only slots absent from the cache at
  /// (`epoch`, `cache_namespace`) are scored. Counters accumulate into
  /// *stats.
  Status ScoreFeatureRows(const Matrix& features,
                          const BatchCostPredictor& predictor, size_t arity,
                          uint64_t epoch, uint64_t cache_namespace,
                          size_t threads, Matrix* costs,
                          PredictionStats* stats) const;

  /// The materialized batched path's costing: one ExtractFeatures pass
  /// over all candidates, then ScoreFeatureRows on options.threads.
  StatusOr<std::vector<Vector>> PredictCandidateCostsBatched(
      const std::vector<QueryPlan>& plans,
      const BatchCostPredictor& predictor, size_t arity, uint64_t epoch,
      uint64_t cache_namespace, PredictionStats* stats) const;

  /// One chunk of the streaming pipeline: builds the candidates' feature
  /// rows (CandidateFeaturesInto over each template's ExtractFeatures
  /// row), scores them through ScoreFeatureRows, and folds the chunk's
  /// Pareto survivors into `archive` under their global sequence numbers.
  /// Builds no plan.
  Status FoldCandidateChunk(const CandidateChunk& chunk,
                            const BatchCostPredictor& predictor, size_t arity,
                            uint64_t epoch, uint64_t cache_namespace,
                            size_t threads, ParetoArchive* archive,
                            PredictionStats* stats) const;

  /// Drops cache entries from epochs other than `snapshot_epoch`. Driven
  /// by snapshot publication (OnSnapshotPublished) rather than at
  /// optimization start: concurrent optimizations pinned to different
  /// epochs would otherwise take turns evicting each other's warm
  /// entries. No-op for epoch 0 and when caching is off.
  void PruneStaleEpochs(uint64_t snapshot_epoch) const;

  /// Dispatches to the configured MOQP algorithm over the predicted table.
  StatusOr<MoqpResult> RunAlgorithm(std::vector<QueryPlan> plans,
                                    std::vector<Vector> costs,
                                    const QueryPolicy& policy) const;

  StatusOr<MoqpResult> FromCandidates(std::vector<QueryPlan> plans,
                                      std::vector<Vector> costs,
                                      const QueryPolicy& policy) const;

  const Federation* federation_;
  const Catalog* catalog_;
  MoqpOptions options_;
  std::shared_ptr<FeatureCostCache> cache_;
};

}  // namespace midas

#endif  // MIDAS_IRES_MOO_OPTIMIZER_H_

#ifndef MIDAS_IRES_MOO_OPTIMIZER_H_
#define MIDAS_IRES_MOO_OPTIMIZER_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "federation/federation.h"
#include "optimizer/best_in_pareto.h"
#include "optimizer/nsga2.h"
#include "optimizer/nsga_g.h"
#include "query/enumerator.h"

namespace midas {

/// Search strategy of the Multi-Objective Optimizer module.
enum class MoqpAlgorithm {
  /// Cost every physical plan, extract the exact Pareto front, choose with
  /// Algorithm 2. Tractable for the paper's 2-table queries.
  kExhaustivePareto,
  /// NSGA-II over the candidate cost table (for large plan spaces), then
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
  /// Candidates per chunk of the candidate stream. Each chunk is costed in
  /// one step: one call of a BatchCostPredictor over its feature rows, or
  /// one Materialize of its plans for a per-plan CostPredictor. The
  /// exhaustive fold holds at most its Pareto archive plus one chunk of
  /// cost rows, so smaller values tighten the working set while larger
  /// values amortise per-call estimator setup. 0 falls back to the
  /// default. The result is independent of the value.
  size_t stream_chunk_size = 4096;
  /// Concurrent candidate-stream pipelines: the plan space is partitioned
  /// into this many shards (PlanSpace::PartitionShards), each costed
  /// on its own worker against the same predictor. 1 = one stream
  /// (default), 0 = the process-wide default parallelism. The result, and
  /// the error of a failing predictor, are bit-identical at any value;
  /// per-shard pipeline metrics land in MoqpResult::shard_stats. The
  /// predictor must be thread-safe when != 1.
  size_t shards = 1;
};

/// \brief Pipeline metrics of one candidate-stream shard
/// (MoqpOptions::shards): timings are per shard, so plans/sec here exposes
/// stragglers the aggregate result hides.
struct MoqpShardStats {
  /// Shard id, 0-based (matches the PartitionShards output order).
  size_t shard = 0;
  /// Cost rows this shard streamed and scored.
  uint64_t rows_costed = 0;
  /// Members of the shard-local archive when the shard finished
  /// (pre-merge front size; 0 for the cost-table algorithms).
  size_t front_size = 0;
  /// High-water mark of this shard's resident candidates: its archive
  /// front plus one in-flight chunk of cost rows for kExhaustivePareto,
  /// the table rows it scored otherwise.
  size_t peak_resident_candidates = 0;
  /// Wall-clock seconds of the shard's stream→cost→fold pipeline.
  double seconds = 0.0;
  /// rows_costed / seconds (0 when the duration underflows the clock).
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
  /// Number of physical plans considered: the plan-space size,
  /// EnumeratePhysical().size().
  size_t candidates_examined = 0;
  /// Cost rows the predictor scored. The per-plan pipeline scores every
  /// candidate; the feature-row pipeline scores leader strata only and
  /// skips every alias stratum, whose feature rows an earlier template
  /// group produced rank for rank (PlanSpace). Aggregation: SUM across
  /// shards.
  size_t rows_costed = 0;
  /// Estimator snapshot epoch the costs were predicted against. Stamped by
  /// MidasSystem::OptimizeQuery; 0 when the caller's predictor is not a
  /// pinned snapshot.
  uint64_t snapshot_epoch = 0;
  /// High-water mark of simultaneously resident candidates, counted as
  /// cost rows (plans are built only for the returned set): the archive
  /// front plus one in-flight chunk for kExhaustivePareto, the whole cost
  /// table for kWsm and the NSGA variants. Aggregation under sharding for
  /// kExhaustivePareto: SUM of the per-shard peaks (shard_stats breaks it
  /// down) — the worst case when every shard hits its high-water mark
  /// simultaneously.
  size_t peak_resident_candidates = 0;
  /// Per-shard pipeline metrics; empty for a single stream (shards == 1).
  std::vector<MoqpShardStats> shard_stats;

  const QueryPlan& chosen_plan() const { return pareto_plans[chosen]; }
  const Vector& chosen_costs() const { return pareto_costs[chosen]; }
};

/// \brief IReS' Multi-Objective Optimizer with the paper's pipeline
/// (Figure 2): enumerate the equivalent QEPs, predict each plan's
/// multi-metric cost, find the Pareto plan set, and select the final plan
/// with BestInPareto (Algorithm 2) under the user policy.
///
/// Every Optimize call runs one pipeline over one resolved plan space
/// (PlanEnumerator::Resolve), partitioned into MoqpOptions::shards
/// shards whose candidate streams (EnumerationShard::StreamCandidates)
/// are costed a chunk at a time into cost rows keyed by each candidate's
/// sequence number (its EnumeratePhysical index). kExhaustivePareto folds
/// each chunk's survivors into a shard-local Pareto archive, and the
/// archives are merged back into serial order; kWsm and the NSGA variants
/// collect the rows into one sequence-indexed cost table and select over
/// it. Only the selected candidates are built into plans
/// (PlanSpace::Materialize). The two predictor kinds differ in how a chunk
/// is costed and in what the space is keyed by: the feature-row pipeline
/// keys each template by its feature row, so only leader strata are
/// streamed and an alias stratum's rows are copies of its leader's.
///
/// The feature-row pipeline takes its space from a bounded memo
/// (FeatureSpace), so a repeated logical plan is resolved once per
/// optimizer while the memo holds it. That is sound because a resolved
/// space is immutable and a pure function of the logical plan, the
/// federation, the catalog, the enumerator options and the
/// ExtractFeatures key. The federation, the catalog and the options may
/// therefore not change while an optimizer lives. Optimize(CostPredictor)
/// resolves its unkeyed space on every call, as the independent
/// reference.
class MultiObjectiveOptimizer {
 public:
  /// Feature-keyed plan spaces one optimizer holds at most (FeatureSpace).
  /// A plan that is not held is resolved on every call, and admitted on
  /// its second sighting: when its hash is among the last
  /// kPlanSpaceMemoCapacity hashes resolved without admission. Admitting
  /// into a full memo evicts the least recently used space.
  static constexpr size_t kPlanSpaceMemoCapacity = 16;

  /// Predicts the cost vector of one annotated physical plan. With either
  /// predictor kind, a non-finite cost fails the optimization
  /// (FailedPrecondition) instead of entering the Pareto front.
  using CostPredictor = std::function<StatusOr<Vector>(const QueryPlan&)>;

  /// Scores a batch of candidates at once: `features` holds one extracted
  /// feature row per candidate (ires/features.h layout) and the predictor
  /// fills *costs with one row per feature row, one column per metric.
  /// Must be a pure function of the features, row by row: a row's cost may
  /// not depend on the other rows of the batch or on its position. The
  /// pipeline never builds the candidates' plans for it, splits the
  /// candidates into chunks, and does not score an alias stratum, whose
  /// feature rows an earlier template group produced rank for rank.
  using BatchCostPredictor =
      std::function<Status(const Matrix& features, Matrix* costs)>;

  MultiObjectiveOptimizer(const Federation* federation,
                          const Catalog* catalog,
                          MoqpOptions options = MoqpOptions());

  MultiObjectiveOptimizer(const MultiObjectiveOptimizer&) = delete;
  MultiObjectiveOptimizer& operator=(const MultiObjectiveOptimizer&) = delete;

  /// The plan space of `logical` with each template keyed by its
  /// ExtractFeatures row: the space Optimize(BatchCostPredictor) streams.
  /// Memoised per logical plan, by exact structure (IdenticalPlans; the
  /// plan is hashed once per call and compared in depth only on a hash
  /// match): from a plan's admission (kPlanSpaceMemoCapacity) on, calls
  /// return the same space until it is evicted. A resolve error is
  /// returned as is and never memoised. Materialize on it builds the same
  /// plans as on an unkeyed PlanEnumerator::Resolve, since keys only alias
  /// strata. Thread-safe.
  StatusOr<std::shared_ptr<const PlanSpace>> FeatureSpace(
      const QueryPlan& logical) const;

  /// Feature-row pipeline (the served path): each chunk's feature rows go
  /// to `predictor` in one call, no plan is built for a candidate outside
  /// the returned set, and an alias stratum's candidates are not scored
  /// again (MoqpResult::rows_costed).
  StatusOr<MoqpResult> Optimize(const QueryPlan& logical,
                                const BatchCostPredictor& predictor,
                                const QueryPolicy& policy) const;

  /// Per-plan pipeline for predictors that read the plan's shape (e.g.
  /// the simulator's expected cost): each chunk's plans are materialized
  /// and costed one by one, in sequence order. Same fold, same selection
  /// and same result as the feature-row pipeline whenever the two
  /// predictors agree.
  ///
  /// Both overloads reject a policy failing ValidatePolicy before any
  /// candidate is costed. A failing predictor fails the call with the
  /// error of the lowest-sequence candidate that failed — the error one
  /// serial stream reports, at any shard count. A failed batch call counts
  /// as a failure of its chunk's first candidate.
  StatusOr<MoqpResult> Optimize(const QueryPlan& logical,
                                const CostPredictor& predictor,
                                const QueryPolicy& policy) const;

 private:
  /// Costs one chunk of the candidate stream into *costs, one row per
  /// candidate in chunk order and one column per policy metric, with the
  /// rows passing the shared arity and finiteness checks. On failure
  /// *failed_row is the chunk row whose candidate failed (0 when the whole
  /// chunk failed at once).
  using ChunkScorer = std::function<Status(
      const CandidateChunk& chunk, Matrix* costs, size_t* failed_row)>;

  /// The pipeline every Optimize runs (see the class comment), over the
  /// resolved `space`, for a policy that passed ValidatePolicy.
  StatusOr<MoqpResult> Run(const std::shared_ptr<const PlanSpace>& space,
                           const QueryPolicy& policy,
                           const ChunkScorer& score) const;

  /// One memoised space, with the logical plan it was resolved from.
  struct MemoEntry {
    uint64_t hash = 0;
    QueryPlan logical;
    std::shared_ptr<const PlanSpace> space;
    uint64_t last_used = 0;
  };

  const Federation* federation_;
  const Catalog* catalog_;
  MoqpOptions options_;
  mutable std::mutex memo_mutex_;  // guards the three fields below
  mutable std::vector<MemoEntry> memo_;  // at most kPlanSpaceMemoCapacity
  mutable uint64_t memo_clock_ = 0;      // stamps MemoEntry::last_used
  /// Hashes of the plans last resolved without admission, oldest first.
  mutable std::deque<uint64_t> unadmitted_;
};

}  // namespace midas

#endif  // MIDAS_IRES_MOO_OPTIMIZER_H_

#ifndef MIDAS_MIDAS_MIDAS_H_
#define MIDAS_MIDAS_MIDAS_H_

#include <memory>
#include <string>

#include "common/random.h"
#include "engine/simulator.h"
#include "federation/federation.h"
#include "ires/modelling.h"
#include "ires/moo_optimizer.h"
#include "ires/scheduler.h"
#include "query/schema.h"

namespace midas {

/// \brief Top-level configuration of a MIDAS deployment.
struct MidasOptions {
  /// MOQP search strategy and enumerator knobs.
  MoqpOptions moqp;
  /// Cost estimator used for plan cost prediction.
  EstimatorConfig estimator = EstimatorConfig::DreamDefault();
  /// Engine simulator (variance model, determinism).
  SimulatorOptions simulator;
  uint64_t seed = 2019;
};

/// \brief One optimization request as the Interface receives it: the
/// history scope it predicts under, the logical plan to optimize and the
/// user policy Algorithm 2 selects with. The unit of work RunQuery and
/// the serving layer's QueryService both consume.
struct QueryRequest {
  std::string scope;
  QueryPlan logical;
  QueryPolicy policy;
};

/// \brief Everything one query's pipeline produced.
struct QueryOutcome {
  /// The Pareto set and the chosen plan.
  MoqpResult moqp;
  /// Cost vector the estimator predicted for the chosen plan.
  Vector predicted;
  /// What actually happened when the plan ran (zero-initialised until the
  /// plan is executed — OptimizeQuery alone never runs anything).
  Measurement actual;
  /// Which estimator produced `predicted` ("DREAM", "BML_N", ...).
  std::string estimator;
};

/// \brief MIDAS — the medical data management system of Figure 1, wiring
/// together the cloud federation, the IReS modules (Modelling with DREAM,
/// Multi-Objective Optimizer, Scheduler) and the execution engines.
///
/// Lifecycle per query: Interface receives a logical plan and user policy →
/// Modelling predicts the multi-metric cost of every equivalent QEP (DREAM
/// by default) → Multi-Objective Optimizer computes the Pareto plan set and
/// BestInPareto picks the final QEP → the Scheduler executes it on the
/// engines and the measurement feeds back into the Modelling history.
class MidasSystem {
 public:
  MidasSystem(Federation federation, Catalog catalog,
              MidasOptions options = MidasOptions());

  MidasSystem(const MidasSystem&) = delete;
  MidasSystem& operator=(const MidasSystem&) = delete;

  const Federation& federation() const { return federation_; }
  const Catalog& catalog() const { return catalog_; }
  Modelling& modelling() { return *modelling_; }
  ExecutionSimulator& simulator() { return *simulator_; }
  const MidasOptions& options() const { return options_; }

  /// Seeds the Modelling history for `scope` by executing `runs` randomly
  /// chosen physical variants of `logical` (monitoring-mode warm-up).
  Status Bootstrap(const std::string& scope, const QueryPlan& logical,
                   size_t runs);

  /// RunQuery's result type, at namespace scope since the serving layer
  /// produces the same outcomes.
  using QueryOutcome = midas::QueryOutcome;

  /// \brief The read-only half of RunQuery: enumerate → cost → Pareto →
  /// Algorithm 2 for `request`, predicting every candidate against the
  /// pinned `snapshot` (whose epoch lands in MoqpResult::snapshot_epoch).
  /// One pipeline at every options.moqp.shards value: the feature-row
  /// MultiObjectiveOptimizer::Optimize scores the candidate stream through
  /// Modelling::PredictBatch and builds plans only for the Pareto front. Fills moqp/predicted/estimator;
  /// `actual` stays zero — nothing executes and no feedback is recorded.
  /// A non-finite predicted cost fails the query (FailedPrecondition).
  ///
  /// Const and safe to call concurrently from many threads against the
  /// same or different snapshots — the concurrency point the QueryService
  /// executor slots fan out over. (The DREAM default and the deterministic
  /// BML selector are both pure functions of the snapshot's frozen
  /// windows.)
  StatusOr<QueryOutcome> OptimizeQuery(
      const std::shared_ptr<const EstimatorSnapshot>& snapshot,
      const QueryRequest& request) const;

  /// Full pipeline for one query. The whole optimization predicts against
  /// ONE pinned estimator snapshot (its epoch is reported in
  /// MoqpResult::snapshot_epoch), so every candidate is costed from the
  /// same (features, model, window) state even while feedback from other
  /// queries streams in; the measurement is then recorded back into the
  /// scope's history (adaptive feedback), publishing the next epoch. With
  /// options.moqp.shards != 1 disjoint plan-space shards cost their
  /// candidates concurrently against the same pinned snapshot, with a
  /// bit-identical outcome (per-shard metrics in
  /// MoqpResult::shard_stats). A failed optimization records nothing.
  StatusOr<QueryOutcome> RunQuery(const std::string& scope,
                                  const QueryPlan& logical,
                                  const QueryPolicy& policy);

  /// The IReS execution layer (simulated engines + feedback recording).
  /// Exposed for serving-layer clients that split optimization from
  /// execution; Scheduler methods mutate the simulator clock and variance
  /// state, so concurrent callers must serialize their executions (the
  /// QueryService feedback path does).
  Scheduler& scheduler() { return *scheduler_; }

 private:
  Federation federation_;
  Catalog catalog_;
  MidasOptions options_;
  std::unique_ptr<Modelling> modelling_;
  std::unique_ptr<ExecutionSimulator> simulator_;
  std::unique_ptr<Scheduler> scheduler_;
  std::unique_ptr<MultiObjectiveOptimizer> optimizer_;
  Rng rng_;
};

}  // namespace midas

#endif  // MIDAS_MIDAS_MIDAS_H_

#include "midas/midas.h"

#include <algorithm>

#include "ires/features.h"

namespace midas {

MidasSystem::MidasSystem(Federation federation, Catalog catalog,
                         MidasOptions options)
    : federation_(std::move(federation)),
      catalog_(std::move(catalog)),
      options_(std::move(options)),
      rng_(options_.seed) {
  modelling_ = std::make_unique<Modelling>(
      FeatureNames(federation_), StandardMetricNames(), options_.seed + 7);
  SimulatorOptions sim_opts = options_.simulator;
  sim_opts.seed = options_.seed;
  simulator_ = std::make_unique<ExecutionSimulator>(&federation_, &catalog_,
                                                    sim_opts);
  scheduler_ = std::make_unique<Scheduler>(&federation_, simulator_.get(),
                                           modelling_.get());
  optimizer_ = std::make_unique<MultiObjectiveOptimizer>(
      &federation_, &catalog_, options_.moqp);
}

Status MidasSystem::Bootstrap(const std::string& scope,
                              const QueryPlan& logical, size_t runs) {
  // Draw the picks as sequence numbers over the whole plan space and build
  // only those plans: the same draws and plans as picking from the
  // EnumeratePhysical list, without enumerating it. The space is the
  // optimizer's memoised feature-keyed one, which RunQuery then reuses;
  // keys only alias strata, so it materializes the same plans as an
  // unkeyed space. Plans are built and run a chunk at a time, so a long
  // bootstrap holds at most kChunk plans at once.
  MIDAS_ASSIGN_OR_RETURN(std::shared_ptr<const PlanSpace> space,
                         optimizer_->FeatureSpace(logical));
  std::vector<uint64_t> picks(runs);
  for (uint64_t& pick : picks) pick = rng_.Index(space->size());
  constexpr size_t kChunk = 64;
  for (size_t begin = 0; begin < picks.size(); begin += kChunk) {
    const std::vector<uint64_t> chunk(
        picks.begin() + begin,
        picks.begin() + std::min(picks.size(), begin + kChunk));
    MIDAS_ASSIGN_OR_RETURN(std::vector<QueryPlan> plans,
                           space->Materialize(chunk));
    for (const QueryPlan& plan : plans) {
      MIDAS_RETURN_IF_ERROR(
          scheduler_->ExecuteAndRecord(scope, plan).status());
    }
  }
  return Status::OK();
}

StatusOr<QueryOutcome> MidasSystem::OptimizeQuery(
    const std::shared_ptr<const EstimatorSnapshot>& snapshot,
    const QueryRequest& request) const {
  if (snapshot == nullptr) {
    return Status::InvalidArgument("OptimizeQuery needs a pinned snapshot");
  }
  // Every candidate is scored as a feature row against the pinned
  // snapshot; the optimizer builds plans only for the Pareto front, at any
  // shard count.
  MultiObjectiveOptimizer::BatchCostPredictor predictor =
      [this, &request, &snapshot](const Matrix& features,
                                  Matrix* costs) -> Status {
    MIDAS_ASSIGN_OR_RETURN(
        *costs, modelling_->PredictBatch(*snapshot, request.scope, features,
                                         options_.estimator));
    return Status::OK();
  };
  QueryOutcome outcome;
  MIDAS_ASSIGN_OR_RETURN(
      outcome.moqp,
      optimizer_->Optimize(request.logical, predictor, request.policy));
  outcome.moqp.snapshot_epoch = snapshot->epoch();
  outcome.predicted = outcome.moqp.chosen_costs();
  outcome.estimator = EstimatorName(options_.estimator);
  return outcome;
}

StatusOr<QueryOutcome> MidasSystem::RunQuery(const std::string& scope,
                                             const QueryPlan& logical,
                                             const QueryPolicy& policy) {
  // Pin one estimator snapshot for the whole optimization: every candidate
  // cost comes from the same epoch, so feedback recorded concurrently can
  // never skew this query's Pareto front.
  QueryRequest request{scope, logical, policy};
  MIDAS_ASSIGN_OR_RETURN(
      QueryOutcome outcome,
      OptimizeQuery(modelling_->Snapshot(), request));
  MIDAS_ASSIGN_OR_RETURN(
      outcome.actual,
      scheduler_->ExecuteAndRecord(scope, outcome.moqp.chosen_plan()));
  return outcome;
}

}  // namespace midas

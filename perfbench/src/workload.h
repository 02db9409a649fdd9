#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "midas/midas.h"
#include "report.h"

namespace perfbench {

/// \brief The fixed shape of one workload. The seed never changes a
/// shape; it only picks policies, visit order and the system seed.
struct WorkloadSpec {
  std::string name;
  /// ThreeCloudFederation instead of PaperFederation.
  bool three_clouds = false;
  /// Enumerator VM counts 1..max_nodes; 0 keeps the default {1, 2, 4, 8}.
  int max_nodes = 0;
  /// DREAM's M_max as a multiple of the base window N = L + 2; 0 keeps
  /// the default (all history).
  size_t m_max_windows = 0;
  /// Bootstrap observations per history scope, one entry per scope.
  std::vector<size_t> scope_sizes;
  /// Serves through QueryService (one tenant per scope) instead of a
  /// serial RunQuery loop.
  bool service = false;
  /// Timed queries per second of --seconds: the run's fixed amount of
  /// work is this times --seconds, rounded to whole rounds over scopes.
  double queries_per_second = 0.0;
  /// How strongly the workload's timings respond to host speed relative
  /// to HostCalibration: the log-log slope of raw p50 latency against the
  /// calibration over ten seeds on the reference host.
  double host_sensitivity = 1.0;
};

/// The named workload, or nullptr.
const WorkloadSpec* FindWorkload(const std::string& name);

/// \brief The inputs the workload seed generates: the system seed, the
/// order scopes are visited in, and one policy per timed query.
struct WorkloadInputs {
  uint64_t system_seed = 0;
  std::vector<std::string> scopes;  // visit order of one round
  std::vector<midas::QueryPolicy> policies;  // one per timed query
  midas::QueryPlan query;
  size_t timed_queries = 0;
  /// Timings are summarised per block of this many consecutive queries:
  /// whole rounds over the scopes, at least 9 blocks per run when there
  /// are that many rounds.
  size_t block_queries = 0;
};

WorkloadInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                          double seconds);

/// Builds the workload's system and bootstraps every scope. Identical
/// specs and seeds give identical systems.
std::unique_ptr<midas::MidasSystem> BuildSystem(const WorkloadSpec& spec,
                                                uint64_t system_seed,
                                                const midas::QueryPlan& query);

/// \brief What one query produced, reduced to the parts the output checks
/// compare across runs.
struct Outcome {
  std::string plan;                 // chosen plan, QueryPlan::ToString
  midas::Vector predicted;          // predicted cost of the chosen plan
  midas::Measurement actual;        // simulated execution of it
  std::vector<midas::Vector> front; // deduplicated Pareto front costs
  size_t chosen = 0;                // index into front
};

Outcome FromQueryOutcome(const midas::QueryOutcome& outcome);

/// Output checks on one query: finite non-negative predicted and actual
/// costs, and a chosen index inside a mutually non-dominated front.
void CheckOutcome(const Outcome& outcome, uint64_t query, Report* report);

/// Checks that `replayed` reproduces `reference`: same chosen plan and
/// measurement, predicted costs equal to a relative 1e-9.
void CheckSameOutcome(const Outcome& reference, const Outcome& replayed,
                      uint64_t query, const char* what, Report* report);

/// \brief Eq. 15 MRE and mean actual cost over a run's timed queries.
struct CostAccumulator {
  void Add(const Outcome& outcome);
  double mre_seconds() const;
  double mre_dollars() const;
  double plan_seconds() const;
  double plan_dollars() const;
  uint64_t count = 0;

 private:
  double rel_err_seconds_ = 0.0;
  double rel_err_dollars_ = 0.0;
  double seconds_ = 0.0;
  double dollars_ = 0.0;
};

/// \brief RunQuery decomposed into the public calls it composes, each
/// timed as a span from outside:
///   Modelling::Snapshot, EstimatorSnapshot::DreamFit,
///   PlanEnumerator::EnumeratePhysical, ExtractFeatures,
///   Modelling::Predict, ParetoFrontIndices + dedup, BestInPareto,
///   ExecutionSimulator::Execute, Modelling::Record.
/// Counters per query land in `counters`.
struct LayerCounters {
  double plans = 0.0;
  double predict_calls = 0.0;
  double front_size = 0.0;
  double dream_window = 0.0;
  double dream_converged = 0.0;
};

midas::StatusOr<Outcome> TracedRunQuery(midas::MidasSystem* system,
                                        const std::string& scope,
                                        const midas::QueryPlan& logical,
                                        const midas::QueryPolicy& policy,
                                        uint64_t query, Tracer* tracer,
                                        LayerCounters* counters);

/// Span names of TracedRunQuery, root first.
extern const char* const kQuerySpan;
extern const char* const kLayerSpans[];
extern const size_t kNumLayerSpans;

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

#ifndef MIDAS_ENGINE_SIMULATOR_H_
#define MIDAS_ENGINE_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <vector>

#include "engine/cost_profile.h"
#include "engine/variance.h"
#include "federation/federation.h"
#include "query/plan.h"

namespace midas {

/// \brief What one (simulated) execution of a QEP produced — the multi-metric
/// observation DREAM and the Modelling module learn from.
struct Measurement {
  /// End-to-end execution time of the plan (seconds).
  double seconds = 0.0;
  /// Pay-as-you-go monetary cost: VM rental for the makespan at every
  /// participating site plus inter-cloud egress (dollars).
  double dollars = 0.0;
  /// Total bytes moved between sites (the "intermediate data" metric).
  double bytes_transferred = 0.0;
  /// Logical time of the execution.
  int64_t timestamp = 0;
};

struct SimulatorOptions {
  VarianceOptions variance;
  uint64_t seed = 42;
  /// When false the simulator returns expected (seasonal-only) costs and
  /// draws no randomness — useful for deterministic tests.
  bool stochastic = true;
};

/// \brief Analytical multi-engine execution simulator.
///
/// Substitutes for the paper's private cloud (see DESIGN.md): walks an
/// annotated physical plan, charges per-operator compute at the operator's
/// engine profile with Amdahl-scaled parallelism, charges network transfer
/// whenever an operator consumes a child that ran at another site, applies
/// the per-site load drift + noise model, and prices the run with the
/// pay-as-you-go model of the plan's sites.
class ExecutionSimulator {
 public:
  ExecutionSimulator(const Federation* federation, const Catalog* catalog,
                     SimulatorOptions options = SimulatorOptions());

  /// Executes the plan "now", advancing the logical clock by one query.
  StatusOr<Measurement> Execute(const QueryPlan& plan);

  /// Expected cost at the given logical time: seasonal drift only, no AR
  /// state advance, no noise. Ground truth for accuracy metrics.
  StatusOr<Measurement> ExpectedCostAt(const QueryPlan& plan,
                                       int64_t timestamp) const;

  int64_t now() const { return clock_; }
  void AdvanceClock(int64_t delta) { clock_ += delta; }

  /// Overrides an engine's cost profile (tests / what-if studies).
  void SetProfile(EngineKind kind, CostProfile profile);
  const CostProfile& profile(EngineKind kind) const;

 private:
  struct SiteUsage {
    double busy_seconds = 0.0;  // noise-free compute attributed to the site
    int max_nodes = 0;          // VMs the plan holds at the site
    bool used = false;
  };
  struct BaseCosts {
    std::vector<SiteUsage> sites;
    double transfer_seconds = 0.0;
    double transfer_dollars = 0.0;
    double bytes_transferred = 0.0;
  };

  /// Noise-free per-site cost breakdown of a plan.
  StatusOr<BaseCosts> ComputeBase(const QueryPlan& plan) const;

  StatusOr<Measurement> Assemble(const BaseCosts& base,
                                 const std::vector<double>& load_factors,
                                 double noise, int64_t timestamp) const;

  const Federation* federation_;
  const Catalog* catalog_;
  SimulatorOptions options_;
  std::array<CostProfile, kNumEngineKinds> profiles_;
  std::vector<VarianceModel> site_variance_;  // one per federation site
  VarianceModel noise_;
  int64_t clock_ = 0;
};

}  // namespace midas

#endif  // MIDAS_ENGINE_SIMULATOR_H_

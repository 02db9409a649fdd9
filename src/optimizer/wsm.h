#ifndef MIDAS_OPTIMIZER_WSM_H_
#define MIDAS_OPTIMIZER_WSM_H_

#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "optimizer/problem.h"

namespace midas {

/// Rejects weights no weighted sum can rank with: a negative or non-finite
/// weight, or weights that do not sum to a positive value. NaN fails every
/// comparison and +Inf passes both sign checks, so both are named
/// explicitly; InvalidArgument either way.
Status ValidateWeights(const Vector& weights);

/// Weighted-sum scalarisation of a cost vector with *normalised* costs:
/// each metric is first divided by its range over the candidate set so the
/// weights compare like with like. Weights must pass ValidateWeights.
StatusOr<double> WeightedSum(const Vector& costs, const Vector& weights);

/// \brief Scalarises every candidate and returns the argmin index — the
/// Weighted Sum Model (Helff & Orazio 2016) the original IReS optimizer
/// used, and the baseline of Figure 3 (right).
///
/// Costs are min-max normalised per metric over the candidate set before
/// weighting; a metric with zero range contributes zero.
StatusOr<size_t> WsmSelect(const std::vector<Vector>& candidate_costs,
                           const Vector& weights);

struct WsmGaOptions {
  size_t population_size = 100;
  size_t generations = 100;
  double crossover_probability = 0.9;
  double mutation_probability = -1.0;  // <=0: 1/num_variables
  uint64_t seed = 1;
};

/// \brief Single-objective genetic optimizer over a MooProblem whose
/// fitness is the weighted sum of the objectives — the full "Multi-
/// Objective Optimization based on the Weighted Sum Model" branch of
/// Figure 3. Changing the weights requires a complete re-run, which is
/// exactly the drawback the paper cites (§2.6).
class WsmGeneticOptimizer {
 public:
  explicit WsmGeneticOptimizer(WsmGaOptions options = WsmGaOptions());

  struct Result {
    Vector variables;
    Vector objectives;
    double scalar_fitness = 0.0;
  };

  /// Weights apply to the problem's raw (un-normalised) objectives.
  StatusOr<Result> Optimize(const MooProblem& problem,
                            const Vector& weights) const;

 private:
  WsmGaOptions options_;
};

}  // namespace midas

#endif  // MIDAS_OPTIMIZER_WSM_H_

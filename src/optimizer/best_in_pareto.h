#ifndef MIDAS_OPTIMIZER_BEST_IN_PARETO_H_
#define MIDAS_OPTIMIZER_BEST_IN_PARETO_H_

#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace midas {

/// \brief User query policy: the weights S of the final weighted-sum
/// ranking and the per-metric constraint vector B ("finish under 60 s and
/// $0.01"). An empty `constraints` means unconstrained.
struct QueryPolicy {
  Vector weights;
  Vector constraints;
};

/// Rejects a policy Algorithm 2 cannot rank with: weights failing
/// ValidateWeights (negative, non-finite or summing to zero), more
/// constraints than weights, or a NaN constraint (`cost > NaN` is false for
/// every plan, so it would be silently ignored). An infinite constraint is a
/// valid "no limit". InvalidArgument either way.
Status ValidatePolicy(const QueryPolicy& policy);

/// \brief Algorithm 2 (BestInPareto): picks the final QEP from a Pareto
/// plan set P given the user policy (which must pass ValidatePolicy).
///
/// First restricts P to the plans meeting every constraint B_n
/// (PB = {p : c_n(p) <= B_n ∀n <= |B|}); if any survive, returns the
/// weighted-sum minimiser among them, otherwise the weighted-sum minimiser
/// over all of P (best effort when no plan meets the constraints).
/// Returns the index into `pareto_costs`.
StatusOr<size_t> BestInPareto(const std::vector<Vector>& pareto_costs,
                              const QueryPolicy& policy);

}  // namespace midas

#endif  // MIDAS_OPTIMIZER_BEST_IN_PARETO_H_

#include "optimizer/best_in_pareto.h"

#include <cmath>

#include "optimizer/wsm.h"

namespace midas {

Status ValidatePolicy(const QueryPolicy& policy) {
  MIDAS_RETURN_IF_ERROR(ValidateWeights(policy.weights));
  if (policy.constraints.size() > policy.weights.size()) {
    return Status::InvalidArgument("more constraints than metrics");
  }
  for (double bound : policy.constraints) {
    if (std::isnan(bound)) return Status::InvalidArgument("NaN constraint");
  }
  return Status::OK();
}

StatusOr<size_t> BestInPareto(const std::vector<Vector>& pareto_costs,
                              const QueryPolicy& policy) {
  if (pareto_costs.empty()) {
    return Status::InvalidArgument("empty Pareto set");
  }
  const size_t arity = pareto_costs[0].size();
  if (policy.weights.size() != arity) {
    return Status::InvalidArgument("policy weights arity mismatch");
  }
  MIDAS_RETURN_IF_ERROR(ValidatePolicy(policy));

  // PB <- plans meeting every constraint (line 2 of Algorithm 2).
  std::vector<size_t> feasible;
  for (size_t i = 0; i < pareto_costs.size(); ++i) {
    if (pareto_costs[i].size() != arity) {
      return Status::InvalidArgument("ragged Pareto costs");
    }
    bool ok = true;
    for (size_t n = 0; n < policy.constraints.size(); ++n) {
      if (pareto_costs[i][n] > policy.constraints[n]) {
        ok = false;
        break;
      }
    }
    if (ok) feasible.push_back(i);
  }

  // Weighted-sum minimiser over the feasible subset, falling back to all
  // of P when PB is empty (lines 3-7).
  const std::vector<size_t>* pool_indices = nullptr;
  std::vector<size_t> all;
  if (!feasible.empty()) {
    pool_indices = &feasible;
  } else {
    all.resize(pareto_costs.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = i;
    pool_indices = &all;
  }
  std::vector<Vector> pool;
  pool.reserve(pool_indices->size());
  for (size_t i : *pool_indices) pool.push_back(pareto_costs[i]);
  MIDAS_ASSIGN_OR_RETURN(size_t local, WsmSelect(pool, policy.weights));
  return (*pool_indices)[local];
}

}  // namespace midas

#include "optimizer/best_in_pareto.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

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

namespace {

// Min-max normalises a 2-metric cost set; zero-range metrics map to 0.
std::vector<Vector> Normalize2D(const std::vector<Vector>& costs) {
  Vector lo = costs[0], hi = costs[0];
  for (const Vector& c : costs) {
    for (size_t m = 0; m < 2; ++m) {
      lo[m] = std::min(lo[m], c[m]);
      hi[m] = std::max(hi[m], c[m]);
    }
  }
  std::vector<Vector> out;
  out.reserve(costs.size());
  for (const Vector& c : costs) {
    Vector n(2, 0.0);
    for (size_t m = 0; m < 2; ++m) {
      const double range = hi[m] - lo[m];
      n[m] = range > 0.0 ? (c[m] - lo[m]) / range : 0.0;
    }
    out.push_back(std::move(n));
  }
  return out;
}

}  // namespace

StatusOr<size_t> KneePointSelect(const std::vector<Vector>& pareto_costs) {
  if (pareto_costs.empty()) {
    return Status::InvalidArgument("empty Pareto set");
  }
  for (const Vector& c : pareto_costs) {
    if (c.size() != 2) {
      return Status::InvalidArgument("knee selection is two-metric only");
    }
  }
  const std::vector<Vector> normalized = Normalize2D(pareto_costs);
  if (pareto_costs.size() < 3) {
    // Degenerate set: fall back to the normalised-sum minimiser.
    size_t best = 0;
    for (size_t i = 1; i < normalized.size(); ++i) {
      if (normalized[i][0] + normalized[i][1] <
          normalized[best][0] + normalized[best][1]) {
        best = i;
      }
    }
    return best;
  }
  // Extreme points in normalised space: best metric-0 and best metric-1.
  size_t e0 = 0, e1 = 0;
  for (size_t i = 1; i < normalized.size(); ++i) {
    if (normalized[i][0] < normalized[e0][0]) e0 = i;
    if (normalized[i][1] < normalized[e1][1]) e1 = i;
  }
  const double ax = normalized[e0][0], ay = normalized[e0][1];
  const double bx = normalized[e1][0], by = normalized[e1][1];
  const double chord = std::hypot(bx - ax, by - ay);
  if (chord <= 0.0) return e0;  // all plans coincide after normalisation
  // Perpendicular distance to the chord, on the non-dominated side.
  size_t best = e0;
  double best_distance = -1.0;
  for (size_t i = 0; i < normalized.size(); ++i) {
    const double cross = (bx - ax) * (ay - normalized[i][1]) -
                         (ax - normalized[i][0]) * (by - ay);
    const double distance = cross / chord;  // signed; positive = below
    if (distance > best_distance) {
      best_distance = distance;
      best = i;
    }
  }
  return best;
}

StatusOr<size_t> LexicographicSelect(const std::vector<Vector>& pareto_costs,
                                     const std::vector<size_t>& priority,
                                     double tolerance) {
  if (pareto_costs.empty()) {
    return Status::InvalidArgument("empty Pareto set");
  }
  if (priority.empty()) {
    return Status::InvalidArgument("empty metric priority");
  }
  if (tolerance < 0.0) {
    return Status::InvalidArgument("negative tolerance");
  }
  const size_t arity = pareto_costs[0].size();
  for (size_t m : priority) {
    if (m >= arity) return Status::OutOfRange("priority metric out of range");
  }
  std::vector<size_t> survivors(pareto_costs.size());
  std::iota(survivors.begin(), survivors.end(), 0);
  for (size_t m : priority) {
    double best = std::numeric_limits<double>::infinity();
    for (size_t i : survivors) best = std::min(best, pareto_costs[i][m]);
    const double cutoff = best + std::abs(best) * tolerance;
    std::vector<size_t> next;
    for (size_t i : survivors) {
      if (pareto_costs[i][m] <= cutoff) next.push_back(i);
    }
    survivors = std::move(next);
    if (survivors.size() == 1) break;
  }
  return survivors.front();
}

}  // namespace midas

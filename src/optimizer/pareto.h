#ifndef MIDAS_OPTIMIZER_PARETO_H_
#define MIDAS_OPTIMIZER_PARETO_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "linalg/matrix.h"

namespace midas {

/// All objectives are minimised throughout the optimizer library.

/// a weakly dominates b: a_n <= b_n for every metric (paper Eq. 1).
bool WeaklyDominates(const Vector& a, const Vector& b);

/// a dominates b in the standard Pareto sense: a <= b everywhere and
/// a < b somewhere.
bool Dominates(const Vector& a, const Vector& b);

/// a strictly dominates b: a_n < b_n for every metric (paper Eq. 3).
bool StrictlyDominates(const Vector& a, const Vector& b);

/// Indices of the non-dominated points of `costs` (the Pareto front),
/// ascending, using standard dominance. Duplicate cost vectors all
/// survive.
std::vector<size_t> ParetoFrontIndices(const std::vector<Vector>& costs);

/// Same front. For the 1–3 objective cases the paper's policies use
/// (time / money / latency trade-offs) the front is extracted by a
/// lexicographic sweep (2 objectives) or Kung's divide-and-conquer
/// (3 objectives) in O(n log n) / O(n log² n); higher arities fall back
/// to the O(n²) dominance scan split over `threads` concurrent chunks
/// (1 = serial, 0 = the process default). Every path returns the same
/// ascending index list at any thread count.
std::vector<size_t> ParetoFrontIndices(const std::vector<Vector>& costs,
                                       size_t threads);

/// Indices of the distinct non-dominated rows of `costs` (one cost vector
/// per row, finite values), each distinct vector represented by its first
/// row, ascending: what ParetoFrontIndices plus first-representative
/// dedup yields. For the two-objective (time, money) policies it runs
/// online over a staircase of the running front — one binary search per
/// row, no sort of the rows — which is the streaming pipeline's
/// per-chunk filter over thousands of candidates; other arities reduce
/// ParetoFrontIndices' front.
std::vector<size_t> DistinctParetoFrontRows(const Matrix& costs);

/// Fast non-dominated sort: partitions all points into fronts; result[0]
/// is the Pareto front, result[1] the next layer, etc. Indices within a
/// front are ascending. Implemented as the Jensen/Fortin divide-and-
/// conquer sort (generalised sweep over lexicographically ordered unique
/// cost vectors, O(n log^(M-1) n)) — bit-identical in ranking to
/// `NonDominatedSortNaive` below, which is kept as the test oracle.
std::vector<std::vector<size_t>> FastNonDominatedSort(
    const std::vector<Vector>& costs);

/// Zero-copy variant over borrowed objective vectors (callers holding
/// Individuals pass pointers instead of copying every objective vector
/// into a scratch array).
std::vector<std::vector<size_t>> FastNonDominatedSort(
    const std::vector<const Vector*>& costs);

/// Reference non-dominated sort (Deb et al. 2002): the O(n²) adjacency-
/// list algorithm, kept as the oracle the fast sort is tested against the
/// same way `MultiplyReferenceInto` anchors the blocked GEMM. Indices
/// within a front are ascending, so the result is directly comparable to
/// `FastNonDominatedSort`.
std::vector<std::vector<size_t>> NonDominatedSortNaive(
    const std::vector<Vector>& costs);

/// Zero-copy variant over borrowed objective vectors.
std::vector<std::vector<size_t>> NonDominatedSortNaive(
    const std::vector<const Vector*>& costs);

/// Crowding distance of each point within one front (Deb et al. 2002).
/// Boundary points get +infinity.
std::vector<double> CrowdingDistances(const std::vector<Vector>& costs,
                                      const std::vector<size_t>& front);

/// Zero-copy variant over borrowed objective vectors.
std::vector<double> CrowdingDistances(const std::vector<const Vector*>& costs,
                                      const std::vector<size_t>& front);

// --- Parametric definitions of §2.3 (after Trummer & Koch) -----------------
//
// Plans have parameter-dependent costs c_n(p, x). Over a finite sample X of
// the parameter space we can compute where one plan dominates another
// (Eq. 2) and each plan's Pareto region (Eq. 4).

/// Cost function of one plan: maps a parameter vector x to its cost vector.
using ParametricCost = std::function<Vector(const Vector& x)>;

/// Dom(p1, p2) of Eq. 2: the subset of `parameter_samples` where p1 weakly
/// dominates p2. Returns indices into `parameter_samples`.
StatusOr<std::vector<size_t>> DomRegion(
    const ParametricCost& p1, const ParametricCost& p2,
    const std::vector<Vector>& parameter_samples);

/// StriDom(p1, p2) of Eq. 3 over the sample.
StatusOr<std::vector<size_t>> StriDomRegion(
    const ParametricCost& p1, const ParametricCost& p2,
    const std::vector<Vector>& parameter_samples);

/// PaReg(p) of Eq. 4: parameter samples where no alternative plan strictly
/// dominates `plan`. `alternatives` excludes (or may include) the plan
/// itself — a plan never strictly dominates itself, so either is safe.
StatusOr<std::vector<size_t>> ParetoRegion(
    const ParametricCost& plan, const std::vector<ParametricCost>& alternatives,
    const std::vector<Vector>& parameter_samples);

}  // namespace midas

#endif  // MIDAS_OPTIMIZER_PARETO_H_

#include "optimizer/pareto.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <numeric>
#include <unordered_set>
#include <utility>

#include "common/logging.h"
#include "common/thread_pool.h"

namespace midas {

namespace {

std::vector<const Vector*> BorrowAll(const std::vector<Vector>& costs) {
  std::vector<const Vector*> borrowed;
  borrowed.reserve(costs.size());
  for (const Vector& c : costs) borrowed.push_back(&c);
  return borrowed;
}

bool LexLess(const Vector& a, const Vector& b) {
  return std::lexicographical_compare(a.begin(), a.end(), b.begin(), b.end());
}

// --- Jensen/Fortin divide-and-conquer non-dominated sort -------------------
//
// Operates on the *unique* cost vectors, sorted lexicographically
// ascending (all objectives minimised, so a vector can only be dominated
// by a lexicographically smaller one). Front numbers satisfy
// front(q) = 1 + max{front(p) : p dominates q} (0 if undominated), which
// is exactly the rank Deb's adjacency algorithm computes, so the two
// sorts agree bit for bit.

// b dominates a restricted to objectives [0..k]: b <= a everywhere on the
// prefix and b < a somewhere on it.
bool PrefixDominates(const Vector& b, const Vector& a, size_t k) {
  bool strict = false;
  for (size_t i = 0; i <= k; ++i) {
    if (b[i] > a[i]) return false;
    if (b[i] < a[i]) strict = true;
  }
  return strict;
}

// b <= a on every objective of [0..k]; an equal prefix counts. Used where
// the recursion already guarantees strictness on some higher objective.
bool PrefixWeaklyDominates(const Vector& b, const Vector& a, size_t k) {
  for (size_t i = 0; i <= k; ++i) {
    if (b[i] > a[i]) return false;
  }
  return true;
}

// Monotone staircase over (second objective, front number) pairs: keeps
// only the points that maximise the front number for a given bound on the
// second objective, so both coordinates are strictly increasing along the
// vector. MaxAtOrBelow answers "highest front among recorded points whose
// second objective is <= y" in O(log n).
class FrontStairs {
 public:
  int MaxAtOrBelow(double y) const {
    auto it = std::upper_bound(
        steps_.begin(), steps_.end(), y,
        [](double v, const std::pair<double, int>& s) { return v < s.first; });
    return it == steps_.begin() ? -1 : std::prev(it)->second;
  }

  void Add(double y, int f) {
    auto it = std::lower_bound(
        steps_.begin(), steps_.end(), y,
        [](const std::pair<double, int>& s, double v) { return s.first < v; });
    int current = it == steps_.begin() ? -1 : std::prev(it)->second;
    if (it != steps_.end() && it->first == y) {
      current = std::max(current, it->second);
    }
    if (current >= f) return;
    auto last = it;
    while (last != steps_.end() && last->second <= f) ++last;
    if (it != last) {
      *it = {y, f};
      steps_.erase(it + 1, last);
    } else {
      steps_.insert(it, {y, f});
    }
  }

 private:
  std::vector<std::pair<double, int>> steps_;
};

struct SortState {
  // Unique cost vectors in lexicographic ascending order.
  std::vector<const Vector*> points;
  // Front number per unique vector.
  std::vector<int> front;

  const Vector& P(size_t u) const { return *points[u]; }
  double Obj(size_t u, size_t k) const { return (*points[u])[k]; }
};

// Assigns fronts within `ids` considering only the first two objectives
// with standard (strict-somewhere) dominance. `ids` is in lexicographic
// order; points sharing an identical (f0, f1) prefix are processed as one
// run so they never count as dominating each other.
void SweepA(const std::vector<size_t>& ids, SortState* st) {
  FrontStairs stairs;
  size_t i = 0;
  while (i < ids.size()) {
    size_t j = i;
    while (j < ids.size() && st->Obj(ids[j], 0) == st->Obj(ids[i], 0) &&
           st->Obj(ids[j], 1) == st->Obj(ids[i], 1)) {
      ++j;
    }
    for (size_t r = i; r < j; ++r) {
      const int d = stairs.MaxAtOrBelow(st->Obj(ids[r], 1));
      if (d >= 0) st->front[ids[r]] = std::max(st->front[ids[r]], d + 1);
    }
    for (size_t r = i; r < j; ++r) {
      stairs.Add(st->Obj(ids[r], 1), st->front[ids[r]]);
    }
    i = j;
  }
}

// Pushes front bounds from `lids` (final front numbers) onto `hids` using
// *weak* dominance on the first two objectives: the callers guarantee
// every l beats every h strictly on some higher objective. Both lists are
// in lexicographic order, so a merge pointer feeds the staircase.
void SweepB(const std::vector<size_t>& lids, const std::vector<size_t>& hids,
            SortState* st) {
  FrontStairs stairs;
  size_t li = 0;
  for (size_t h : hids) {
    const double h0 = st->Obj(h, 0);
    const double h1 = st->Obj(h, 1);
    while (li < lids.size()) {
      const size_t l = lids[li];
      const double l0 = st->Obj(l, 0);
      if (!(l0 < h0 || (l0 == h0 && st->Obj(l, 1) <= h1))) break;
      stairs.Add(st->Obj(l, 1), st->front[l]);
      ++li;
    }
    const int d = stairs.MaxAtOrBelow(h1);
    if (d >= 0) st->front[h] = std::max(st->front[h], d + 1);
  }
}

// Median of objective k over `ids` (mean of the middle pair for even
// sizes, matching Fortin et al.'s reference split).
double MedianOf(const std::vector<size_t>& ids, size_t k,
                const SortState& st) {
  std::vector<double> values;
  values.reserve(ids.size());
  for (size_t u : ids) values.push_back(st.Obj(u, k));
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[(n - 1) / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

// Stable split of `ids` around the median of objective k. Ties on the
// pivot go to whichever side balances the split better (ties to `best`),
// so neither side can absorb everything unless all values are equal —
// which the caller rules out.
void SplitA(const std::vector<size_t>& ids, size_t k, const SortState& st,
            std::vector<size_t>* best, std::vector<size_t>* worst) {
  const double pivot = MedianOf(ids, k, st);
  size_t below = 0;
  size_t equal = 0;
  for (size_t u : ids) {
    const double v = st.Obj(u, k);
    below += v < pivot ? 1 : 0;
    equal += v == pivot ? 1 : 0;
  }
  const auto balance = [&](size_t best_size) {
    const size_t worst_size = ids.size() - best_size;
    return best_size >= worst_size ? best_size - worst_size
                                   : worst_size - best_size;
  };
  const bool ties_to_best = balance(below + equal) <= balance(below);
  for (size_t u : ids) {
    const double v = st.Obj(u, k);
    const bool to_best = v < pivot || (v == pivot && ties_to_best);
    (to_best ? best : worst)->push_back(u);
  }
}

// Stable split of both lists around the median (of the larger list) on
// objective k; "1" sides take the smaller values. Ties go to whichever
// option balances all four parts better (ties to the "1" sides).
void SplitB(const std::vector<size_t>& lids, const std::vector<size_t>& hids,
            size_t k, const SortState& st, std::vector<size_t>* l1,
            std::vector<size_t>* l2, std::vector<size_t>* h1,
            std::vector<size_t>* h2) {
  const double pivot =
      MedianOf(lids.size() > hids.size() ? lids : hids, k, st);
  long balance_a = 0;  // ties to the "1" (better) sides
  long balance_b = 0;  // ties to the "2" sides
  for (const std::vector<size_t>* ids : {&lids, &hids}) {
    for (size_t u : *ids) {
      const double v = st.Obj(u, k);
      balance_a += v < pivot || v == pivot ? 1 : -1;
      balance_b += v < pivot ? 1 : -1;
    }
  }
  const bool ties_to_one = std::labs(balance_a) <= std::labs(balance_b);
  for (size_t u : lids) {
    const double v = st.Obj(u, k);
    (v < pivot || (v == pivot && ties_to_one) ? l1 : l2)->push_back(u);
  }
  for (size_t u : hids) {
    const double v = st.Obj(u, k);
    (v < pivot || (v == pivot && ties_to_one) ? h1 : h2)->push_back(u);
  }
}

void SortA(const std::vector<size_t>& ids, size_t k, SortState* st);

// Raises front numbers of `hids` from the (already final) front numbers
// of `lids`, restricted to objectives [0..k] with weak dominance — every
// call site guarantees each l strictly beats each h on some objective
// above k, so a weak prefix match is full dominance.
void SortB(const std::vector<size_t>& lids, const std::vector<size_t>& hids,
           size_t k, SortState* st) {
  if (lids.empty() || hids.empty()) return;
  if (lids.size() == 1 || hids.size() == 1 || k == 0) {
    for (size_t h : hids) {
      for (size_t l : lids) {
        if (PrefixWeaklyDominates(st->P(l), st->P(h), k)) {
          st->front[h] = std::max(st->front[h], st->front[l] + 1);
        }
      }
    }
    return;
  }
  if (k == 1) {
    SweepB(lids, hids, st);
    return;
  }
  double lmin = st->Obj(lids[0], k);
  double lmax = lmin;
  for (size_t l : lids) {
    lmin = std::min(lmin, st->Obj(l, k));
    lmax = std::max(lmax, st->Obj(l, k));
  }
  double hmin = st->Obj(hids[0], k);
  double hmax = hmin;
  for (size_t h : hids) {
    hmin = std::min(hmin, st->Obj(h, k));
    hmax = std::max(hmax, st->Obj(h, k));
  }
  if (lmax <= hmin) {
    // Objective k never blocks domination: drop it.
    SortB(lids, hids, k - 1, st);
    return;
  }
  if (lmin <= hmax) {
    std::vector<size_t> l1, l2, h1, h2;
    SplitB(lids, hids, k, *st, &l1, &l2, &h1, &h2);
    SortB(l1, h1, k, st);
    SortB(l1, h2, k - 1, st);  // every l1 <= every h2 on objective k
    SortB(l2, h2, k, st);
    // (l2, h1) is skipped: every l2 > every h1 on objective k, so no
    // domination is possible across that pair.
  }
  // Else lmin > hmax: no l can weakly dominate any h on objective k.
}

// Assigns fronts within `ids` (lexicographic order) restricted to
// objectives [0..k] with standard dominance.
void SortA(const std::vector<size_t>& ids, size_t k, SortState* st) {
  if (ids.size() < 2) return;
  if (ids.size() == 2) {
    if (PrefixDominates(st->P(ids[0]), st->P(ids[1]), k)) {
      st->front[ids[1]] =
          std::max(st->front[ids[1]], st->front[ids[0]] + 1);
    }
    return;
  }
  if (k == 1) {
    SweepA(ids, st);
    return;
  }
  bool all_equal = true;
  for (size_t u : ids) {
    if (st->Obj(u, k) != st->Obj(ids[0], k)) {
      all_equal = false;
      break;
    }
  }
  if (all_equal) {
    SortA(ids, k - 1, st);
    return;
  }
  std::vector<size_t> best, worst;
  SplitA(ids, k, *st, &best, &worst);
  SortA(best, k, st);           // finalises fronts of the better half
  SortB(best, worst, k - 1, st);  // best strictly beats worst on k
  SortA(worst, k, st);
}

// Lexicographic order of all points with index tie-break, plus the
// mapping of every point onto its unique-vector id (ids numbered in
// lexicographic order of the unique vectors).
struct LexUnique {
  std::vector<size_t> representatives;  // original index per unique vector
  std::vector<size_t> unique_of;        // original index -> unique id
};

LexUnique LexSortUnique(const std::vector<const Vector*>& costs) {
  const size_t n = costs.size();
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), size_t{0});
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (LexLess(*costs[a], *costs[b])) return true;
    if (LexLess(*costs[b], *costs[a])) return false;
    return a < b;
  });
  LexUnique out;
  out.unique_of.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t p = order[i];
    if (out.representatives.empty() ||
        *costs[p] != *costs[out.representatives.back()]) {
      out.representatives.push_back(p);
    }
    out.unique_of[p] = out.representatives.size() - 1;
  }
  return out;
}

// Kung's divide-and-conquer front extraction for three objectives over
// unique, lexicographically sorted points: the top half's front filters
// the bottom half through a (f1, prefix-min f2) staircase, O(u log² u).
void KungFront3(const std::vector<const Vector*>& points, size_t lo,
                size_t hi, std::vector<size_t>* result) {
  if (hi - lo == 1) {
    result->push_back(lo);
    return;
  }
  const size_t mid = lo + (hi - lo) / 2;
  std::vector<size_t> top, bottom;
  KungFront3(points, lo, mid, &top);
  KungFront3(points, mid, hi, &bottom);
  // Staircase over the top survivors: f1 ascending, prefix-min of f2.
  // Any top point t has t0 <= b0 for every bottom point b (lexicographic
  // order), so t dominates b iff t1 <= b1 and t2 <= b2.
  std::vector<std::pair<double, double>> stairs;
  stairs.reserve(top.size());
  for (size_t t : top) stairs.push_back({(*points[t])[1], (*points[t])[2]});
  std::sort(stairs.begin(), stairs.end());
  double running = std::numeric_limits<double>::infinity();
  for (auto& s : stairs) {
    running = std::min(running, s.second);
    s.second = running;
  }
  result->insert(result->end(), top.begin(), top.end());
  for (size_t b : bottom) {
    const double b1 = (*points[b])[1];
    const double b2 = (*points[b])[2];
    auto it = std::upper_bound(
        stairs.begin(), stairs.end(), b1,
        [](double v, const std::pair<double, double>& s) {
          return v < s.first;
        });
    const bool dominated =
        it != stairs.begin() && std::prev(it)->second <= b2;
    if (!dominated) result->push_back(b);
  }
}

// O(n log n)-ish Pareto front for 1–3 objectives: dedup + lexicographic
// sweep (arity <= 2) or Kung's recursion (arity 3), then map the
// surviving unique vectors back onto all their duplicates, ascending.
std::vector<size_t> FrontByLexSweep(const std::vector<Vector>& costs) {
  const std::vector<const Vector*> borrowed = BorrowAll(costs);
  const LexUnique lex = LexSortUnique(borrowed);
  const size_t u = lex.representatives.size();
  const size_t arity = costs[0].size();
  std::vector<uint8_t> survives(u, 0);
  if (arity == 1) {
    survives[0] = 1;  // unique minimum
  } else if (arity == 2) {
    // A unique vector is dominated iff an earlier (lex-smaller) unique
    // vector has f1 <= its own: track the running minimum.
    double best_f1 = std::numeric_limits<double>::infinity();
    for (size_t j = 0; j < u; ++j) {
      const double f1 = (*borrowed[lex.representatives[j]])[1];
      if (f1 < best_f1) {
        survives[j] = 1;
        best_f1 = f1;
      }
    }
  } else {
    std::vector<const Vector*> points(u);
    for (size_t j = 0; j < u; ++j) {
      points[j] = borrowed[lex.representatives[j]];
    }
    std::vector<size_t> front_ids;
    KungFront3(points, 0, u, &front_ids);
    for (size_t j : front_ids) survives[j] = 1;
  }
  std::vector<size_t> front;
  for (size_t i = 0; i < costs.size(); ++i) {
    if (survives[lex.unique_of[i]] != 0) front.push_back(i);
  }
  return front;
}

}  // namespace

bool WeaklyDominates(const Vector& a, const Vector& b) {
  MIDAS_CHECK(a.size() == b.size()) << "objective arity mismatch";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
  }
  return true;
}

bool Dominates(const Vector& a, const Vector& b) {
  MIDAS_CHECK(a.size() == b.size()) << "objective arity mismatch";
  bool strictly_better_somewhere = false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] > b[i]) return false;
    if (a[i] < b[i]) strictly_better_somewhere = true;
  }
  return strictly_better_somewhere;
}

bool StrictlyDominates(const Vector& a, const Vector& b) {
  MIDAS_CHECK(a.size() == b.size()) << "objective arity mismatch";
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] >= b[i]) return false;
  }
  return true;
}

std::vector<size_t> ParetoFrontIndices(const std::vector<Vector>& costs) {
  return ParetoFrontIndices(costs, 1);
}

std::vector<size_t> ParetoFrontIndices(const std::vector<Vector>& costs,
                                       size_t threads) {
  if (costs.empty()) return {};
  const size_t arity = costs[0].size();
  for (const Vector& c : costs) {
    MIDAS_CHECK(c.size() == arity) << "objective arity mismatch";
  }
  if (arity >= 1 && arity <= 3) return FrontByLexSweep(costs);
  // Higher arities: membership of each point is an independent scan of
  // the full set, so the chunks write disjoint flag slots and the
  // collected front is identical at any thread count.
  std::vector<uint8_t> non_dominated(costs.size(), 0);
  ParallelForOptions options;
  options.threads = threads;
  const Status st = ParallelFor(
      costs.size(),
      [&costs, &non_dominated](size_t i) {
        bool dominated = false;
        for (size_t j = 0; j < costs.size(); ++j) {
          if (i != j && Dominates(costs[j], costs[i])) {
            dominated = true;
            break;
          }
        }
        non_dominated[i] = dominated ? 0 : 1;
        return Status::OK();
      },
      options);
  MIDAS_CHECK(st.ok()) << "ParetoFrontIndices: " << st.ToString();
  std::vector<size_t> front;
  for (size_t i = 0; i < costs.size(); ++i) {
    if (non_dominated[i] != 0) front.push_back(i);
  }
  return front;
}

std::vector<size_t> DistinctParetoFrontRows(const Matrix& costs) {
  const size_t n = costs.rows();
  std::vector<size_t> front;
  if (costs.cols() != 2) {
    // Other arities: the sorted front, reduced to first representatives.
    std::vector<Vector> rows(n);
    for (size_t r = 0; r < n; ++r) rows[r] = costs.Row(r);
    std::unordered_set<Vector, VectorHash> seen;
    for (size_t r : ParetoFrontIndices(rows)) {
      if (seen.insert(rows[r]).second) front.push_back(r);
    }
    return front;
  }
  // Two objectives: an online staircase of the members so far, f0
  // strictly ascending and therefore f1 strictly descending. Of the
  // members whose f0 is not above a row's, the last has the smallest f1,
  // so one binary search decides whether the row is weakly dominated.
  struct Step {
    double f0;
    double f1;
    size_t row;
  };
  std::vector<Step> stairs;
  for (size_t r = 0; r < n; ++r) {
    const double f0 = costs.RowData(r)[0];
    const double f1 = costs.RowData(r)[1];
    const auto above =
        std::upper_bound(stairs.begin(), stairs.end(), f0,
                         [](double v, const Step& s) { return v < s.f0; });
    // Weakly dominated: dominated, or a later duplicate of a member.
    if (above != stairs.begin() && std::prev(above)->f1 <= f1) continue;
    // The row evicts the contiguous run of members it dominates: f0 not
    // below its own and f1 not below its own.
    auto first =
        std::lower_bound(stairs.begin(), above, f0,
                         [](const Step& s, double v) { return s.f0 < v; });
    auto last = first;
    while (last != stairs.end() && last->f1 >= f1) ++last;
    first = stairs.erase(first, last);
    stairs.insert(first, Step{f0, f1, r});
  }
  front.reserve(stairs.size());
  for (const Step& step : stairs) front.push_back(step.row);
  std::sort(front.begin(), front.end());
  return front;
}

std::vector<std::vector<size_t>> FastNonDominatedSort(
    const std::vector<Vector>& costs) {
  return FastNonDominatedSort(BorrowAll(costs));
}

std::vector<std::vector<size_t>> FastNonDominatedSort(
    const std::vector<const Vector*>& costs) {
  const size_t n = costs.size();
  std::vector<std::vector<size_t>> fronts;
  if (n == 0) return fronts;
  const size_t arity = costs[0]->size();
  for (const Vector* c : costs) {
    MIDAS_CHECK(c->size() == arity) << "objective arity mismatch";
  }
  if (arity == 0) {
    // Zero objectives: nothing dominates anything.
    fronts.emplace_back(n);
    std::iota(fronts[0].begin(), fronts[0].end(), size_t{0});
    return fronts;
  }

  const LexUnique lex = LexSortUnique(costs);
  const size_t u = lex.representatives.size();
  SortState st;
  st.points.resize(u);
  for (size_t j = 0; j < u; ++j) st.points[j] = costs[lex.representatives[j]];
  st.front.assign(u, 0);
  if (arity == 1) {
    // Dominance is a total order on the distinct values: the rank is the
    // position in the sorted unique list.
    for (size_t j = 0; j < u; ++j) st.front[j] = static_cast<int>(j);
  } else {
    std::vector<size_t> ids(u);
    std::iota(ids.begin(), ids.end(), size_t{0});
    SortA(ids, arity - 1, &st);
  }

  const int max_front = *std::max_element(st.front.begin(), st.front.end());
  fronts.resize(static_cast<size_t>(max_front) + 1);
  for (size_t i = 0; i < n; ++i) {
    fronts[st.front[lex.unique_of[i]]].push_back(i);
  }
  return fronts;
}

std::vector<std::vector<size_t>> NonDominatedSortNaive(
    const std::vector<Vector>& costs) {
  return NonDominatedSortNaive(BorrowAll(costs));
}

std::vector<std::vector<size_t>> NonDominatedSortNaive(
    const std::vector<const Vector*>& costs) {
  const size_t n = costs.size();
  std::vector<std::vector<size_t>> dominated_by(n);  // S_p
  std::vector<int> domination_count(n, 0);           // n_p
  std::vector<std::vector<size_t>> fronts;

  std::vector<size_t> first_front;
  for (size_t p = 0; p < n; ++p) {
    for (size_t q = 0; q < n; ++q) {
      if (p == q) continue;
      if (Dominates(*costs[p], *costs[q])) {
        dominated_by[p].push_back(q);
      } else if (Dominates(*costs[q], *costs[p])) {
        ++domination_count[p];
      }
    }
    if (domination_count[p] == 0) first_front.push_back(p);
  }
  if (first_front.empty()) return fronts;
  fronts.push_back(std::move(first_front));
  size_t i = 0;
  while (i < fronts.size()) {
    std::vector<size_t> next;
    for (size_t p : fronts[i]) {
      for (size_t q : dominated_by[p]) {
        if (--domination_count[q] == 0) next.push_back(q);
      }
    }
    if (!next.empty()) fronts.push_back(std::move(next));
    ++i;
  }
  // The propagation order above is arbitrary beyond the first front; sort
  // each layer so the oracle is directly comparable to the fast sort.
  for (std::vector<size_t>& front : fronts) {
    std::sort(front.begin(), front.end());
  }
  return fronts;
}

std::vector<double> CrowdingDistances(const std::vector<Vector>& costs,
                                      const std::vector<size_t>& front) {
  return CrowdingDistances(BorrowAll(costs), front);
}

std::vector<double> CrowdingDistances(const std::vector<const Vector*>& costs,
                                      const std::vector<size_t>& front) {
  std::vector<double> distance(front.size(), 0.0);
  if (front.empty()) return distance;
  const size_t num_objectives = costs[front[0]]->size();
  std::vector<size_t> order(front.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;

  for (size_t m = 0; m < num_objectives; ++m) {
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return (*costs[front[a]])[m] < (*costs[front[b]])[m];
    });
    distance[order.front()] = std::numeric_limits<double>::infinity();
    distance[order.back()] = std::numeric_limits<double>::infinity();
    const double range =
        (*costs[front[order.back()]])[m] - (*costs[front[order.front()]])[m];
    if (range <= 0.0) continue;
    for (size_t k = 1; k + 1 < order.size(); ++k) {
      distance[order[k]] += ((*costs[front[order[k + 1]]])[m] -
                             (*costs[front[order[k - 1]]])[m]) /
                            range;
    }
  }
  return distance;
}

StatusOr<std::vector<size_t>> DomRegion(
    const ParametricCost& p1, const ParametricCost& p2,
    const std::vector<Vector>& parameter_samples) {
  if (!p1 || !p2) return Status::InvalidArgument("null cost function");
  std::vector<size_t> region;
  for (size_t i = 0; i < parameter_samples.size(); ++i) {
    if (WeaklyDominates(p1(parameter_samples[i]), p2(parameter_samples[i]))) {
      region.push_back(i);
    }
  }
  return region;
}

StatusOr<std::vector<size_t>> StriDomRegion(
    const ParametricCost& p1, const ParametricCost& p2,
    const std::vector<Vector>& parameter_samples) {
  if (!p1 || !p2) return Status::InvalidArgument("null cost function");
  std::vector<size_t> region;
  for (size_t i = 0; i < parameter_samples.size(); ++i) {
    if (StrictlyDominates(p1(parameter_samples[i]),
                          p2(parameter_samples[i]))) {
      region.push_back(i);
    }
  }
  return region;
}

StatusOr<std::vector<size_t>> ParetoRegion(
    const ParametricCost& plan,
    const std::vector<ParametricCost>& alternatives,
    const std::vector<Vector>& parameter_samples) {
  if (!plan) return Status::InvalidArgument("null cost function");
  std::vector<size_t> region;
  for (size_t i = 0; i < parameter_samples.size(); ++i) {
    const Vector mine = plan(parameter_samples[i]);
    bool beaten = false;
    for (const ParametricCost& alt : alternatives) {
      if (!alt) return Status::InvalidArgument("null cost function");
      if (StrictlyDominates(alt(parameter_samples[i]), mine)) {
        beaten = true;
        break;
      }
    }
    if (!beaten) region.push_back(i);
  }
  return region;
}

}  // namespace midas

#include "optimizer/wsm.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "optimizer/genetic_operators.h"

namespace midas {

Status ValidateWeights(const Vector& weights) {
  double sum = 0.0;
  for (double w : weights) {
    if (!std::isfinite(w)) return Status::InvalidArgument("non-finite weight");
    if (w < 0.0) return Status::InvalidArgument("negative weight");
    sum += w;
  }
  if (sum <= 0.0) return Status::InvalidArgument("weights sum to zero");
  return Status::OK();
}

StatusOr<double> WeightedSum(const Vector& costs, const Vector& weights) {
  if (costs.size() != weights.size()) {
    return Status::InvalidArgument("weights/costs arity mismatch");
  }
  MIDAS_RETURN_IF_ERROR(ValidateWeights(weights));
  double total = 0.0;
  for (size_t i = 0; i < costs.size(); ++i) total += weights[i] * costs[i];
  return total;
}

StatusOr<size_t> WsmSelect(const std::vector<Vector>& candidate_costs,
                           const Vector& weights) {
  if (candidate_costs.empty()) {
    return Status::InvalidArgument("no candidates");
  }
  const size_t arity = candidate_costs[0].size();
  if (weights.size() != arity) {
    return Status::InvalidArgument("weights/costs arity mismatch");
  }
  MIDAS_RETURN_IF_ERROR(ValidateWeights(weights));
  for (const Vector& c : candidate_costs) {
    if (c.size() != arity) {
      return Status::InvalidArgument("ragged candidate costs");
    }
  }
  // Min-max normalisation per metric.
  Vector lo(arity), hi(arity);
  for (size_t m = 0; m < arity; ++m) {
    lo[m] = hi[m] = candidate_costs[0][m];
    for (const Vector& c : candidate_costs) {
      lo[m] = std::min(lo[m], c[m]);
      hi[m] = std::max(hi[m], c[m]);
    }
  }
  size_t best = 0;
  double best_score = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < candidate_costs.size(); ++i) {
    double score = 0.0;
    for (size_t m = 0; m < arity; ++m) {
      const double range = hi[m] - lo[m];
      if (range > 0.0) {
        score += weights[m] * (candidate_costs[i][m] - lo[m]) / range;
      }
    }
    if (score < best_score) {
      best_score = score;
      best = i;
    }
  }
  return best;
}

WsmGeneticOptimizer::WsmGeneticOptimizer(WsmGaOptions options)
    : options_(options) {}

StatusOr<WsmGeneticOptimizer::Result> WsmGeneticOptimizer::Optimize(
    const MooProblem& problem, const Vector& weights) const {
  if (weights.size() != problem.num_objectives()) {
    return Status::InvalidArgument("weights arity mismatch");
  }
  MIDAS_RETURN_IF_ERROR(ValidateWeights(weights));
  if (options_.population_size < 4) {
    return Status::InvalidArgument("population must hold at least 4");
  }
  Rng rng(options_.seed);

  auto fitness = [&](const Vector& objectives) {
    double f = 0.0;
    for (size_t m = 0; m < objectives.size(); ++m) {
      f += weights[m] * objectives[m];
    }
    return f;
  };

  struct Member {
    Vector variables;
    Vector objectives;
    double fitness;
  };
  std::vector<Member> population;
  population.reserve(options_.population_size);
  for (size_t i = 0; i < options_.population_size; ++i) {
    Individual ind = RandomIndividual(problem, &rng);
    population.push_back(
        {ind.variables, ind.objectives, fitness(ind.objectives)});
  }

  SbxOptions sbx;
  sbx.crossover_probability = options_.crossover_probability;
  MutationOptions mut;
  mut.mutation_probability = options_.mutation_probability;

  auto tournament = [&]() -> const Member& {
    const Member& a = population[rng.Index(population.size())];
    const Member& b = population[rng.Index(population.size())];
    return a.fitness <= b.fitness ? a : b;
  };

  for (size_t gen = 0; gen < options_.generations; ++gen) {
    std::vector<Member> offspring;
    offspring.reserve(options_.population_size);
    while (offspring.size() < options_.population_size) {
      auto [c1, c2] = SbxCrossover(problem, tournament().variables,
                                   tournament().variables, sbx, &rng);
      for (Vector* child : {&c1, &c2}) {
        if (offspring.size() >= options_.population_size) break;
        Member m;
        m.variables =
            PolynomialMutation(problem, std::move(*child), mut, &rng);
        m.objectives = problem.Evaluate(m.variables);
        m.fitness = fitness(m.objectives);
        offspring.push_back(std::move(m));
      }
    }
    // Elitist truncation of the combined pool by scalar fitness.
    population.insert(population.end(),
                      std::make_move_iterator(offspring.begin()),
                      std::make_move_iterator(offspring.end()));
    std::sort(population.begin(), population.end(),
              [](const Member& a, const Member& b) {
                return a.fitness < b.fitness;
              });
    population.resize(options_.population_size);
  }

  Result out;
  out.variables = population.front().variables;
  out.objectives = population.front().objectives;
  out.scalar_fitness = population.front().fitness;
  return out;
}

}  // namespace midas

#include "workload.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_set>
#include <utility>

#include "common/random.h"
#include "ires/features.h"
#include "midas/medical.h"
#include "optimizer/best_in_pareto.h"
#include "optimizer/pareto.h"
#include "query/enumerator.h"

namespace perfbench {

using midas::Status;
using midas::StatusOr;

namespace {

constexpr size_t kMinBlocks = 9;

std::vector<size_t> Ladder(size_t scopes, size_t lo, size_t hi) {
  std::vector<size_t> sizes(scopes);
  for (size_t i = 0; i < scopes; ++i) {
    sizes[i] = lo + (hi - lo) * i / (scopes > 1 ? scopes - 1 : 1);
  }
  return sizes;
}

// Shapes are fixed here and documented in perfbench/README.md; the seed
// only picks policies, visit order and the system seed.
const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> specs = [] {
    std::vector<WorkloadSpec> out;
    // Example 2.1 on PaperFederation (96 candidates) under the default
    // estimator: the DREAM fit over 100-150 observations dominates. 48
    // scopes visited round robin keep each scope's growth during a run
    // to a few percent.
    WorkloadSpec deep;
    deep.name = "deep_history";
    deep.scope_sizes = Ladder(48, 100, 150);
    deep.queries_per_second = 22.0;
    deep.host_sensitivity = 1.3;
    out.push_back(deep);
    // Example 2.1 on ThreeCloudFederation with VM counts 1..16 (8,960
    // candidates) and M_max = 2N: enumeration, featurization, prediction
    // and the Pareto fold dominate. The MRE averages over 48 shallow,
    // independently bootstrapped scopes.
    WorkloadSpec wide;
    wide.name = "wide_plan_space";
    wide.three_clouds = true;
    wide.max_nodes = 16;
    wide.m_max_windows = 2;
    wide.scope_sizes = std::vector<size_t>(48, 24);
    wide.queries_per_second = 21.0;
    wide.host_sensitivity = 1.8;
    out.push_back(wide);
    // Example 2.1 through QueryService, one scope per tenant, M_max = 2N:
    // snapshot-pinned reads beside the serialized execute-record-publish
    // path, whose publish copies the whole scope map. VM counts 1..8 (384
    // candidates) keep the write path's lock below ~30% busy: with 96
    // candidates it was ~55% busy, and a descheduled lock holder on a
    // shared host then stalled every slot, doubling p95/p99 in 2 of 10
    // runs.
    WorkloadSpec tenants;
    tenants.name = "multi_tenant";
    tenants.m_max_windows = 2;
    tenants.max_nodes = 8;
    tenants.scope_sizes = std::vector<size_t>(512, 12);
    tenants.service = true;
    tenants.queries_per_second = 1000.0;
    out.push_back(tenants);
    return out;
  }();
  return specs;
}

double RelativeDiff(double a, double b) {
  const double scale = std::max(std::fabs(a), std::fabs(b));
  return scale == 0.0 ? 0.0 : std::fabs(a - b) / scale;
}

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

/// Name of scope (and tenant) `i`.
std::string ScopeName(size_t i) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "s%04zu", i);
  return buf;
}

}  // namespace

const char* const kQuerySpan = "midas.query";
const char* const kLayerSpans[] = {
    "ires.snapshot_acquire", "regression.dream_fit", "query.enumerate",
    "ires.features",         "ires.predict",         "optimizer.pareto",
    "optimizer.select",      "engine.execute",       "ires.record",
};
const size_t kNumLayerSpans = sizeof(kLayerSpans) / sizeof(kLayerSpans[0]);

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

WorkloadInputs MakeInputs(const WorkloadSpec& spec, uint64_t seed,
                          double seconds) {
  WorkloadInputs inputs;
  inputs.system_seed = midas::MixSeed(seed, 1) % 1000000007ULL;
  inputs.query = midas::MakeExample21Query().ValueOrDie();

  midas::Rng order_rng(midas::MixSeed(seed, 2));
  for (size_t i = 0; i < spec.scope_sizes.size(); ++i) {
    inputs.scopes.push_back(ScopeName(i));
  }
  order_rng.Shuffle(&inputs.scopes);

  const size_t scopes = inputs.scopes.size();
  const double wanted = std::max(1.0, seconds * spec.queries_per_second);
  const size_t rounds = std::max<size_t>(
      1, static_cast<size_t>(std::llround(wanted / scopes)));
  const size_t rounds_per_block = std::max<size_t>(1, rounds / kMinBlocks);
  inputs.block_queries = rounds_per_block * scopes;
  inputs.timed_queries = (rounds / rounds_per_block) * inputs.block_queries;

  // User policies: a time/money weight pair from a fixed ladder.
  midas::Rng policy_rng(midas::MixSeed(seed, 3));
  inputs.policies.reserve(inputs.timed_queries);
  for (size_t q = 0; q < inputs.timed_queries; ++q) {
    midas::QueryPolicy policy;
    const double w = 0.1 * static_cast<double>(policy_rng.UniformInt(1, 9));
    policy.weights = {w, 1.0 - w};
    inputs.policies.push_back(std::move(policy));
  }
  return inputs;
}

std::unique_ptr<midas::MidasSystem> BuildSystem(const WorkloadSpec& spec,
                                                uint64_t system_seed,
                                                const midas::QueryPlan& query) {
  midas::Federation federation = spec.three_clouds
                                     ? midas::Federation::ThreeCloudFederation()
                                     : midas::Federation::PaperFederation();
  midas::PlaceMedicalTables(&federation).CheckOK();
  midas::Catalog catalog = midas::MakeMedicalCatalog().ValueOrDie();

  midas::MidasOptions options;
  options.seed = system_seed;
  if (spec.max_nodes > 0) {
    options.moqp.enumerator.node_counts.clear();
    for (int n = 1; n <= spec.max_nodes; ++n) {
      options.moqp.enumerator.node_counts.push_back(n);
    }
  }
  if (spec.m_max_windows > 0) {
    const size_t base_window = midas::FeatureNames(federation).size() + 2;
    options.estimator.dream.m_max = spec.m_max_windows * base_window;
  }
  auto system = std::make_unique<midas::MidasSystem>(
      std::move(federation), std::move(catalog), options);
  for (size_t i = 0; i < spec.scope_sizes.size(); ++i) {
    system->Bootstrap(ScopeName(i), query, spec.scope_sizes[i]).CheckOK();
  }
  return system;
}

Outcome FromQueryOutcome(const midas::QueryOutcome& outcome) {
  Outcome out;
  out.plan = outcome.moqp.chosen_plan().ToString();
  out.predicted = outcome.predicted;
  out.actual = outcome.actual;
  out.front = outcome.moqp.pareto_costs;
  out.chosen = outcome.moqp.chosen;
  return out;
}

void CheckOutcome(const Outcome& outcome, uint64_t query, Report* report) {
  const std::string where = " (query " + std::to_string(query) + ")";
  bool finite = outcome.predicted.size() == 2 &&
                FiniteNonNegative(outcome.actual.seconds) &&
                FiniteNonNegative(outcome.actual.dollars) &&
                outcome.actual.seconds > 0.0 && outcome.actual.dollars > 0.0;
  for (double c : outcome.predicted) finite = finite && FiniteNonNegative(c);
  report->Check(finite, "predicted or actual cost not finite and >= 0" + where);

  bool front_ok = outcome.chosen < outcome.front.size();
  for (size_t i = 0; front_ok && i < outcome.front.size(); ++i) {
    for (size_t j = 0; front_ok && j < outcome.front.size(); ++j) {
      if (i != j &&
          midas::WeaklyDominates(outcome.front[i], outcome.front[j])) {
        front_ok = false;
      }
    }
  }
  report->Check(front_ok,
                "chosen plan outside a mutually non-dominated front" + where);
}

void CheckSameOutcome(const Outcome& reference, const Outcome& replayed,
                      uint64_t query, const char* what, Report* report) {
  const std::string where =
      std::string(" (") + what + ", query " + std::to_string(query) + ")";
  report->Check(reference.plan == replayed.plan, "chosen plan differs" + where);
  const midas::Measurement& a = reference.actual;
  const midas::Measurement& b = replayed.actual;
  report->Check(a.seconds == b.seconds && a.dollars == b.dollars &&
                    a.bytes_transferred == b.bytes_transferred &&
                    a.timestamp == b.timestamp,
                "measured cost differs" + where);
  bool predicted_ok = reference.predicted.size() == replayed.predicted.size();
  for (size_t m = 0; predicted_ok && m < reference.predicted.size(); ++m) {
    predicted_ok =
        RelativeDiff(reference.predicted[m], replayed.predicted[m]) <= 1e-9;
  }
  report->Check(predicted_ok, "predicted cost differs" + where);
}

void CostAccumulator::Add(const Outcome& outcome) {
  if (outcome.predicted.size() != 2 || outcome.actual.seconds <= 0.0 ||
      outcome.actual.dollars <= 0.0) {
    return;  // CheckOutcome reports it
  }
  rel_err_seconds_ += std::fabs(outcome.predicted[0] - outcome.actual.seconds) /
                      outcome.actual.seconds;
  rel_err_dollars_ += std::fabs(outcome.predicted[1] - outcome.actual.dollars) /
                      outcome.actual.dollars;
  seconds_ += outcome.actual.seconds;
  dollars_ += outcome.actual.dollars;
  ++count;
}

double CostAccumulator::mre_seconds() const {
  return count == 0 ? 0.0 : rel_err_seconds_ / static_cast<double>(count);
}
double CostAccumulator::mre_dollars() const {
  return count == 0 ? 0.0 : rel_err_dollars_ / static_cast<double>(count);
}
double CostAccumulator::plan_seconds() const {
  return count == 0 ? 0.0 : seconds_ / static_cast<double>(count);
}
double CostAccumulator::plan_dollars() const {
  return count == 0 ? 0.0 : dollars_ / static_cast<double>(count);
}

StatusOr<Outcome> TracedRunQuery(midas::MidasSystem* system,
                                 const std::string& scope,
                                 const midas::QueryPlan& logical,
                                 const midas::QueryPolicy& policy,
                                 uint64_t query, Tracer* tracer,
                                 LayerCounters* counters) {
  const midas::MidasOptions& options = system->options();
  Outcome out;
  midas::QueryPlan chosen_plan;
  {
    // Everything the query allocates is declared after the root span, so
    // freeing it is timed too, as it is inside RunQuery.
    Scoped root(tracer, query, kQuerySpan);
    std::shared_ptr<const midas::EstimatorSnapshot> snapshot;
    {
      Scoped span(tracer, query, "ires.snapshot_acquire");
      snapshot = system->modelling().Snapshot();
    }
    std::shared_ptr<const midas::DreamEstimate> fit;
    {
      Scoped span(tracer, query, "regression.dream_fit");
      MIDAS_ASSIGN_OR_RETURN(
          fit, snapshot->DreamFit(scope, options.estimator.dream));
    }
    std::vector<midas::QueryPlan> plans;
    {
      Scoped span(tracer, query, "query.enumerate");
      midas::PlanEnumerator enumerator(&system->federation(),
                                       &system->catalog(),
                                       options.moqp.enumerator);
      MIDAS_ASSIGN_OR_RETURN(plans, enumerator.EnumeratePhysical(logical));
    }
    std::vector<midas::Vector> features(plans.size());
    {
      Scoped span(tracer, query, "ires.features");
      for (size_t i = 0; i < plans.size(); ++i) {
        MIDAS_ASSIGN_OR_RETURN(
            features[i],
            midas::ExtractFeatures(system->federation(), plans[i]));
      }
    }
    std::vector<midas::Vector> costs(plans.size());
    {
      Scoped span(tracer, query, "ires.predict");
      for (size_t i = 0; i < plans.size(); ++i) {
        MIDAS_ASSIGN_OR_RETURN(
            costs[i], system->modelling().Predict(*snapshot, scope, features[i],
                                                  options.estimator));
        if (costs[i].size() != policy.weights.size()) {
          return Status::InvalidArgument("predictor/policy arity mismatch");
        }
      }
    }
    std::vector<size_t> front;
    {
      // Same fold as the optimizer: Pareto front, then one representative
      // per identical cost point.
      Scoped span(tracer, query, "optimizer.pareto");
      std::unordered_set<midas::Vector, midas::VectorHash> seen;
      for (size_t idx : midas::ParetoFrontIndices(costs, /*threads=*/1)) {
        if (!seen.insert(costs[idx]).second) continue;
        front.push_back(idx);
        out.front.push_back(costs[idx]);
      }
    }
    {
      Scoped span(tracer, query, "optimizer.select");
      MIDAS_ASSIGN_OR_RETURN(out.chosen,
                             midas::BestInPareto(out.front, policy));
    }
    const size_t pick = front[out.chosen];
    out.predicted = costs[pick];
    {
      Scoped span(tracer, query, "engine.execute");
      MIDAS_ASSIGN_OR_RETURN(out.actual,
                             system->simulator().Execute(plans[pick]));
    }
    {
      Scoped span(tracer, query, "ires.record");
      midas::Observation observation;
      observation.timestamp = out.actual.timestamp;
      observation.features = features[pick];
      observation.costs = midas::MeasurementToCosts(out.actual);
      MIDAS_RETURN_IF_ERROR(
          system->modelling().Record(scope, std::move(observation)));
    }
    chosen_plan = std::move(plans[pick]);
    counters->plans += static_cast<double>(plans.size());
    counters->predict_calls += static_cast<double>(plans.size());
    counters->front_size += static_cast<double>(front.size());
    counters->dream_window += static_cast<double>(fit->window_size);
    counters->dream_converged += fit->converged ? 1.0 : 0.0;
  }
  out.plan = chosen_plan.ToString();
  return out;
}

}  // namespace perfbench

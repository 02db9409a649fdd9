#include "engine/simulator.h"

#include <algorithm>
#include <cmath>

namespace midas {

namespace {
constexpr double kBytesPerMib = 1024.0 * 1024.0;
constexpr double kGoldenAngle = 2.399963229728653;  // de-correlates site phases
}  // namespace

ExecutionSimulator::ExecutionSimulator(const Federation* federation,
                                       const Catalog* catalog,
                                       SimulatorOptions options)
    : federation_(federation),
      catalog_(catalog),
      options_(options),
      noise_(options_.variance, options_.seed + 999) {
  for (int k = 0; k < kNumEngineKinds; ++k) {
    profiles_[k] = DefaultCostProfile(static_cast<EngineKind>(k));
  }
  const size_t n_sites = federation_ ? federation_->num_sites() : 0;
  site_variance_.reserve(n_sites);
  for (size_t s = 0; s < n_sites; ++s) {
    VarianceOptions site_opts = options_.variance;
    site_opts.drift_phase += kGoldenAngle * static_cast<double>(s);
    site_variance_.emplace_back(site_opts, options_.seed + 1000 + s);
  }
}

void ExecutionSimulator::SetProfile(EngineKind kind, CostProfile profile) {
  profiles_[static_cast<int>(kind)] = profile;
}

const CostProfile& ExecutionSimulator::profile(EngineKind kind) const {
  return profiles_[static_cast<int>(kind)];
}

StatusOr<ExecutionSimulator::BaseCosts> ExecutionSimulator::ComputeBase(
    const QueryPlan& input_plan) const {
  if (federation_ == nullptr || catalog_ == nullptr) {
    return Status::FailedPrecondition("simulator missing environment");
  }
  // Work on a copy so cardinality estimation never mutates the caller's plan.
  QueryPlan plan = input_plan;
  MIDAS_RETURN_IF_ERROR(EstimateCardinalities(*catalog_, &plan));

  BaseCosts base;
  base.sites.resize(federation_->num_sites());

  // Startup is charged once per distinct (site, engine) pair.
  std::vector<std::pair<SiteId, EngineKind>> started;

  for (const PlanNode* node : plan.Nodes()) {
    if (!node->site.has_value() || !node->engine.has_value()) {
      return Status::InvalidArgument(
          "plan node lacks physical annotations (run the enumerator first)");
    }
    const SiteId site = *node->site;
    if (site >= base.sites.size()) {
      return Status::OutOfRange("plan references unknown site");
    }
    const CostProfile& prof = profile(*node->engine);
    const double par = EffectiveParallelism(prof, node->num_nodes);

    SiteUsage& usage = base.sites[site];
    usage.used = true;
    usage.max_nodes = std::max(usage.max_nodes, node->num_nodes);

    const auto key = std::make_pair(site, *node->engine);
    if (std::find(started.begin(), started.end(), key) == started.end()) {
      started.push_back(key);
      usage.busy_seconds += prof.startup_seconds;
    }

    double op_seconds = 0.0;
    switch (node->kind) {
      case OperatorKind::kScan:
        op_seconds =
            node->output_bytes / (prof.scan_mib_per_second * kBytesPerMib) +
            node->output_rows * prof.cpu_tuple_seconds;
        break;
      case OperatorKind::kFilter:
        op_seconds =
            node->children[0]->output_rows * prof.cpu_tuple_seconds;
        break;
      case OperatorKind::kProject:
        op_seconds =
            node->children[0]->output_rows * prof.cpu_tuple_seconds * 0.5;
        break;
      case OperatorKind::kJoin: {
        const PlanNode& l = *node->children[0];
        const PlanNode& r = *node->children[1];
        op_seconds =
            (l.output_rows + r.output_rows) * prof.cpu_tuple_seconds +
            node->output_rows * prof.join_tuple_seconds +
            (l.output_bytes + r.output_bytes) /
                (prof.materialize_mib_per_second * kBytesPerMib);
        break;
      }
      case OperatorKind::kAggregate:
        op_seconds =
            node->children[0]->output_rows * prof.cpu_tuple_seconds * 1.5;
        break;
      case OperatorKind::kSort:
        op_seconds =
            node->children[0]->output_rows * prof.cpu_tuple_seconds * 2.5;
        break;
    }
    usage.busy_seconds += op_seconds / par;

    // Inter-site data movement: consuming a child produced elsewhere.
    for (const auto& child : node->children) {
      if (!child->site.has_value()) continue;
      const SiteId from = *child->site;
      if (from == site) continue;
      MIDAS_ASSIGN_OR_RETURN(
          double xfer_s,
          federation_->network().TransferSeconds(from, site,
                                                 child->output_bytes));
      MIDAS_ASSIGN_OR_RETURN(
          double xfer_cost,
          federation_->network().TransferCost(from, site,
                                              child->output_bytes));
      base.transfer_seconds += xfer_s;
      base.transfer_dollars += xfer_cost;
      base.bytes_transferred += child->output_bytes;
    }
  }
  return base;
}

StatusOr<Measurement> ExecutionSimulator::Assemble(
    const BaseCosts& base, const std::vector<double>& load_factors,
    double noise, int64_t timestamp) const {
  double makespan = base.transfer_seconds;
  for (size_t s = 0; s < base.sites.size(); ++s) {
    makespan += base.sites[s].busy_seconds * load_factors[s];
  }
  makespan *= noise;

  // Per-second pay-per-use billing: a site's VMs are billed only while
  // that site computes (its loaded busy time), not for the full federated
  // makespan — the elasticity modern providers bill at.
  double dollars = base.transfer_dollars;
  for (size_t s = 0; s < base.sites.size(); ++s) {
    if (!base.sites[s].used) continue;
    MIDAS_ASSIGN_OR_RETURN(const CloudSite* site, federation_->site(s));
    const double billed_seconds =
        base.sites[s].busy_seconds * load_factors[s] * noise;
    MIDAS_ASSIGN_OR_RETURN(
        double vm_cost,
        site->VmCost(base.sites[s].max_nodes, billed_seconds));
    dollars += vm_cost;
  }

  Measurement m;
  m.seconds = makespan;
  m.dollars = dollars;
  m.bytes_transferred = base.bytes_transferred;
  m.timestamp = timestamp;
  return m;
}

StatusOr<Measurement> ExecutionSimulator::Execute(const QueryPlan& plan) {
  MIDAS_ASSIGN_OR_RETURN(BaseCosts base, ComputeBase(plan));
  const double t = static_cast<double>(clock_);
  std::vector<double> load(federation_->num_sites(), 1.0);
  double noise = 1.0;
  if (options_.stochastic) {
    for (size_t s = 0; s < site_variance_.size(); ++s) {
      load[s] = site_variance_[s].LoadFactor(t);
    }
    noise = noise_.NoiseMultiplier();
  } else {
    for (size_t s = 0; s < site_variance_.size(); ++s) {
      load[s] = site_variance_[s].SeasonalFactor(t);
    }
  }
  MIDAS_ASSIGN_OR_RETURN(Measurement m, Assemble(base, load, noise, clock_));
  ++clock_;
  return m;
}

StatusOr<Measurement> ExecutionSimulator::ExpectedCostAt(
    const QueryPlan& plan, int64_t timestamp) const {
  MIDAS_ASSIGN_OR_RETURN(BaseCosts base, ComputeBase(plan));
  std::vector<double> load(federation_->num_sites(), 1.0);
  for (size_t s = 0; s < site_variance_.size(); ++s) {
    load[s] = site_variance_[s].SeasonalFactor(static_cast<double>(timestamp));
  }
  return Assemble(base, load, 1.0, timestamp);
}

}  // namespace midas

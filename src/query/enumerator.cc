#include "query/enumerator.h"

#include <algorithm>
#include <limits>
#include <numeric>
#include <string>

namespace midas {

PlanEnumerator::PlanEnumerator(const Federation* federation,
                               const Catalog* catalog,
                               EnumeratorOptions options)
    : federation_(federation),
      catalog_(catalog),
      options_(std::move(options)) {}

uint64_t PlanEnumerator::CountResourceConfigurations(int vcpu_pool,
                                                     int memory_gib_pool) {
  if (vcpu_pool <= 0 || memory_gib_pool <= 0) return 0;
  return static_cast<uint64_t>(vcpu_pool) *
         static_cast<uint64_t>(memory_gib_pool);
}

namespace {

// Number of variants CommuteVariants emits for `node` — exact, so the
// hot-loop vectors below can reserve once instead of growing.
uint64_t CountCommuteVariants(const PlanNode& node) {
  if (node.kind != OperatorKind::kJoin) {
    return node.children.empty() ? 1 : CountCommuteVariants(*node.children[0]);
  }
  return 2 * CountCommuteVariants(*node.children[0]) *
         CountCommuteVariants(*node.children[1]);
}

// Recursively emits all join-commutation variants of `node`. Parents are
// shallow-cloned (their subtrees are rebuilt from the variants anyway)
// and each variant subtree is moved rather than re-cloned on its final
// pairing, so a deep tree costs roughly half the node copies of the
// clone-everything version.
void CommuteVariants(const PlanNode& node,
                     std::vector<std::unique_ptr<PlanNode>>* out) {
  if (node.kind != OperatorKind::kJoin) {
    if (node.children.empty()) {
      out->push_back(node.Clone());
      return;
    }
    // Unary operator: recurse into the single child.
    std::vector<std::unique_ptr<PlanNode>> child_variants;
    child_variants.reserve(CountCommuteVariants(*node.children[0]));
    CommuteVariants(*node.children[0], &child_variants);
    out->reserve(out->size() + child_variants.size());
    for (auto& child : child_variants) {
      auto copy = node.CloneShallow();
      copy->children.push_back(std::move(child));
      out->push_back(std::move(copy));
    }
    return;
  }
  std::vector<std::unique_ptr<PlanNode>> left_variants;
  std::vector<std::unique_ptr<PlanNode>> right_variants;
  left_variants.reserve(CountCommuteVariants(*node.children[0]));
  right_variants.reserve(CountCommuteVariants(*node.children[1]));
  CommuteVariants(*node.children[0], &left_variants);
  CommuteVariants(*node.children[1], &right_variants);
  out->reserve(out->size() + 2 * left_variants.size() * right_variants.size());
  for (size_t li = 0; li < left_variants.size(); ++li) {
    auto& lv = left_variants[li];
    for (size_t ri = 0; ri < right_variants.size(); ++ri) {
      auto& rv = right_variants[ri];
      // lv's last use is its pairing with the final rv; rv's last use is
      // its pairing with the final lv.
      const bool lv_final_use = ri + 1 == right_variants.size();
      const bool rv_final_use = li + 1 == left_variants.size();
      // Original orientation.
      auto original = node.CloneShallow();
      original->children.push_back(lv->Clone());
      original->children.push_back(rv->Clone());
      out->push_back(std::move(original));
      // Commuted orientation swaps inputs and join columns.
      auto commuted = node.CloneShallow();
      commuted->children.push_back(rv_final_use ? std::move(rv) : rv->Clone());
      commuted->children.push_back(lv_final_use ? std::move(lv) : lv->Clone());
      std::swap(commuted->left_join_column, commuted->right_join_column);
      out->push_back(std::move(commuted));
    }
  }
}

// Annotates `node` and its subtree in place: scans pin to their table's
// placement, every other operator runs at the chosen compute, and each
// node's VM count comes from `nodes_at` (the current mixed-radix pick).
// Feasibility was established before materialisation, so this walk only
// assigns. Recursing directly instead of materialising a node-pointer
// vector per plan keeps the per-pick cost allocation-free.
template <typename NodesAt>
Status AnnotateNode(
    PlanNode* node,
    const std::vector<std::pair<std::string, Federation::Placement>>&
        placements,
    SiteId compute_site, EngineKind compute_engine, const NodesAt& nodes_at) {
  if (node->kind == OperatorKind::kScan) {
    const Federation::Placement* placement = nullptr;
    for (const auto& entry : placements) {
      if (entry.first == node->table) {
        placement = &entry.second;
        break;
      }
    }
    if (placement == nullptr) {
      return Status::Internal("scan table missing from resolved placements");
    }
    node->site = placement->site;
    node->engine = placement->engine;
    node->num_nodes = nodes_at(placement->site);
  } else {
    node->site = compute_site;
    node->engine = compute_engine;
    node->num_nodes = nodes_at(compute_site);
  }
  for (auto& child : node->children) {
    MIDAS_RETURN_IF_ERROR(AnnotateNode(child.get(), placements, compute_site,
                                       compute_engine, nodes_at));
  }
  return Status::OK();
}

}  // namespace

std::vector<QueryPlan> PlanEnumerator::JoinOrderVariants(
    const QueryPlan& logical) const {
  std::vector<QueryPlan> out;
  if (!options_.enumerate_join_orders) {
    out.push_back(logical);
    return out;
  }
  std::vector<std::unique_ptr<PlanNode>> roots;
  roots.reserve(CountCommuteVariants(*logical.root()));
  CommuteVariants(*logical.root(), &roots);
  out.reserve(roots.size());
  for (auto& root : roots) out.emplace_back(std::move(root));
  return out;
}

Status PlanEnumerator::ResolveSpace(const QueryPlan& logical,
                                    EnumerationSpace* space) const {
  if (federation_ == nullptr || catalog_ == nullptr) {
    return Status::FailedPrecondition("enumerator missing environment");
  }
  MIDAS_RETURN_IF_ERROR(logical.Validate(*catalog_));
  if (options_.node_counts.empty()) {
    return Status::InvalidArgument("no candidate node counts");
  }
  // Checked up front rather than per plan: the candidate stream estimates
  // cardinalities once per template, so a bad count must fail before any
  // candidate reaches a visitor.
  for (int count : options_.node_counts) {
    if (count <= 0) {
      return Status::InvalidArgument("node_counts must be positive, got " +
                                     std::to_string(count));
    }
  }

  // Resolve base table placements once; sorted + deduplicated.
  for (const std::string& table : logical.BaseTables()) {
    MIDAS_ASSIGN_OR_RETURN(Federation::Placement placement,
                           federation_->TablePlacement(table));
    space->data_sites.push_back(placement.site);
    space->placements.emplace_back(table, placement);
  }
  std::sort(space->data_sites.begin(), space->data_sites.end());
  space->data_sites.erase(
      std::unique(space->data_sites.begin(), space->data_sites.end()),
      space->data_sites.end());

  // Candidate compute placements: every (site, engine) pair in the
  // federation.
  for (const CloudSite& site : federation_->sites()) {
    for (EngineKind engine : site.engines()) {
      space->computes.push_back({site.id(), engine});
    }
  }
  if (space->computes.empty()) {
    return Status::FailedPrecondition("federation hosts no engines");
  }

  space->variants = JoinOrderVariants(logical);
  for (const PlanNode* node : logical.Nodes()) {
    if (node->kind != OperatorKind::kScan) {
      space->has_compute_node = true;
      break;
    }
  }
  return Status::OK();
}

StatusOr<PlanEnumerator::StratumSpec> PlanEnumerator::MakeStratumSpec(
    const EnumerationSpace& space, size_t stratum_index) const {
  const size_t n_counts = options_.node_counts.size();
  const size_t n_computes = space.computes.size();
  const size_t n_strata = space.variants.size() * n_computes * n_counts;
  if (stratum_index >= n_strata) {
    return Status::InvalidArgument("stratum index out of range");
  }
  StratumSpec spec;
  spec.leading_digit = stratum_index % n_counts;
  const size_t vc = stratum_index / n_counts;
  spec.compute = vc % n_computes;
  spec.variant = vc / n_computes;

  // Participating sites for this choice: data sites plus compute site.
  const Compute& compute = space.computes[spec.compute];
  spec.used_sites = space.data_sites;
  if (std::find(spec.used_sites.begin(), spec.used_sites.end(),
                compute.site) == spec.used_sites.end()) {
    spec.used_sites.push_back(compute.site);
  }
  std::sort(spec.used_sites.begin(), spec.used_sites.end());

  // A site constrains feasibility iff some operator actually runs there:
  // data sites always host their scans; the compute site hosts work only
  // when the plan has a non-scan operator. Unconstrained sites admit
  // every VM count (their digit never touches a plan).
  spec.allowed.resize(spec.used_sites.size());
  for (size_t i = 0; i < spec.used_sites.size(); ++i) {
    const SiteId site_id = spec.used_sites[i];
    const bool constrained =
        std::binary_search(space.data_sites.begin(), space.data_sites.end(),
                           site_id) ||
        (site_id == compute.site && space.has_compute_node);
    std::vector<char>& allowed = spec.allowed[i];
    allowed.assign(options_.node_counts.size(), 1);
    if (!constrained) continue;
    auto site = federation_->site(site_id);
    for (size_t k = 0; k < options_.node_counts.size(); ++k) {
      // Respect per-site elasticity limits (an unresolvable site admits
      // nothing, mirroring the defensive skip of the materialising loop).
      allowed[k] = site.ok() && options_.node_counts[k] <= (*site)->max_nodes()
                       ? 1
                       : 0;
    }
  }
  return spec;
}

uint64_t PlanEnumerator::StratumFeasibleCount(const StratumSpec& spec) {
  const size_t digits = spec.used_sites.size();
  if (spec.allowed[digits - 1][spec.leading_digit] == 0) return 0;
  uint64_t product = 1;
  for (size_t i = 0; i + 1 < digits; ++i) {
    uint64_t admissible = 0;
    for (char a : spec.allowed[i]) admissible += a != 0 ? 1 : 0;
    if (admissible == 0) return 0;
    // Saturate rather than overflow: callers only compare counts against
    // max_plans, so any value past the cap behaves identically.
    if (product > std::numeric_limits<uint64_t>::max() / admissible) {
      return std::numeric_limits<uint64_t>::max();
    }
    product *= admissible;
  }
  return product;
}

StatusOr<std::vector<EnumerationShard::Stratum>> PlanEnumerator::PlanStrata(
    const EnumerationSpace& space) const {
  const size_t n_strata = space.variants.size() * space.computes.size() *
                          options_.node_counts.size();
  const uint64_t cap = options_.max_plans;
  std::vector<EnumerationShard::Stratum> strata;
  uint64_t prefix = 0;
  for (size_t s = 0; s < n_strata && prefix < cap; ++s) {
    MIDAS_ASSIGN_OR_RETURN(StratumSpec spec, MakeStratumSpec(space, s));
    const uint64_t count = StratumFeasibleCount(spec);
    if (count > 0) {
      strata.push_back({s, prefix, std::min(count, cap - prefix)});
    }
    prefix = count > std::numeric_limits<uint64_t>::max() - prefix
                 ? std::numeric_limits<uint64_t>::max()
                 : prefix + count;
  }
  if (strata.empty()) {
    return Status::FailedPrecondition(
        "no feasible physical plan (check node_counts vs site limits)");
  }
  return strata;
}

template <typename Fn>
Status PlanEnumerator::ForEachPick(const StratumSpec& spec, uint64_t limit,
                                   const Fn& fn) const {
  const size_t n_counts = options_.node_counts.size();
  const size_t digits = spec.used_sites.size();
  // Cartesian product of node counts over the participating sites, with
  // the leading (slowest) digit pinned to this stratum.
  std::vector<size_t> pick(digits, 0);
  pick[digits - 1] = spec.leading_digit;
  uint64_t emitted = 0;
  while (emitted < limit) {
    bool feasible = true;
    for (size_t i = 0; i + 1 < digits; ++i) {
      if (spec.allowed[i][pick[i]] == 0) {
        feasible = false;
        break;
      }
    }
    if (feasible) {
      MIDAS_RETURN_IF_ERROR(fn(pick));
      ++emitted;
    }
    // Advance the mixed-radix counter below the leading digit.
    size_t d = 0;
    while (d + 1 < digits) {
      if (++pick[d] < n_counts) break;
      pick[d] = 0;
      ++d;
    }
    if (d + 1 >= digits) break;
  }
  return Status::OK();
}

std::vector<size_t> PlanEnumerator::DecodePick(const StratumSpec& spec,
                                               uint64_t rank) {
  // Feasibility is per digit, so the feasible picks in counter order are
  // the product of each digit's admissible counts, digit 0 fastest: the
  // rank is a mixed-radix number over those admissible lists.
  const size_t digits = spec.used_sites.size();
  std::vector<size_t> pick(digits, 0);
  pick[digits - 1] = spec.leading_digit;
  for (size_t d = 0; d + 1 < digits; ++d) {
    std::vector<size_t> admissible;
    for (size_t k = 0; k < spec.allowed[d].size(); ++k) {
      if (spec.allowed[d][k] != 0) admissible.push_back(k);
    }
    pick[d] = admissible[rank % admissible.size()];
    rank /= admissible.size();
  }
  return pick;
}

StatusOr<QueryPlan> PlanEnumerator::BuildTemplate(const EnumerationSpace& space,
                                                  size_t variant,
                                                  size_t compute) const {
  QueryPlan plan = space.variants[variant];
  const Compute& c = space.computes[compute];
  MIDAS_RETURN_IF_ERROR(AnnotateNode(plan.mutable_root(), space.placements,
                                     c.site, c.engine,
                                     [](SiteId) { return 1; }));
  MIDAS_RETURN_IF_ERROR(EstimateCardinalities(*catalog_, &plan));
  return plan;
}

Status PlanEnumerator::AnnotatePick(const EnumerationSpace& space,
                                    const StratumSpec& spec,
                                    const std::vector<size_t>& pick,
                                    QueryPlan* plan) const {
  const std::vector<int>& counts = options_.node_counts;
  const auto nodes_at = [&](SiteId s) {
    for (size_t i = 0; i < spec.used_sites.size(); ++i) {
      if (spec.used_sites[i] == s) return counts[pick[i]];
    }
    return counts[0];
  };
  const Compute& compute = space.computes[spec.compute];
  return AnnotateNode(plan->mutable_root(), space.placements, compute.site,
                      compute.engine, nodes_at);
}

StatusOr<std::vector<QueryPlan>> PlanEnumerator::EnumeratePhysical(
    const QueryPlan& logical) const {
  EnumerationSpace space;
  MIDAS_RETURN_IF_ERROR(ResolveSpace(logical, &space));
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard::Stratum> strata,
                         PlanStrata(space));
  // The reference path: one annotated, cardinality-estimated tree per
  // candidate, built from the variant itself rather than a template.
  std::vector<QueryPlan> plans;
  for (const EnumerationShard::Stratum& stratum : strata) {
    MIDAS_ASSIGN_OR_RETURN(StratumSpec spec,
                           MakeStratumSpec(space, stratum.index));
    MIDAS_RETURN_IF_ERROR(ForEachPick(
        spec, stratum.feasible,
        [&](const std::vector<size_t>& pick) -> Status {
          QueryPlan plan = space.variants[spec.variant];
          MIDAS_RETURN_IF_ERROR(AnnotatePick(space, spec, pick, &plan));
          MIDAS_RETURN_IF_ERROR(EstimateCardinalities(*catalog_, &plan));
          plans.push_back(std::move(plan));
          return Status::OK();
        }));
  }
  return plans;
}

StatusOr<std::vector<EnumerationShard>> PlanEnumerator::PartitionShards(
    const QueryPlan& logical, size_t num_shards) const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  EnumerationSpace space;
  MIDAS_RETURN_IF_ERROR(ResolveSpace(logical, &space));
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard::Stratum> entries,
                         PlanStrata(space));

  // Greedy LPT over the capped stratum sizes: biggest strata first, each
  // to the currently lightest shard (ties to the lower shard id). Fully
  // deterministic, so every caller partitions identically.
  std::vector<size_t> order(entries.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&entries](size_t a, size_t b) {
    return entries[a].feasible > entries[b].feasible;
  });
  std::vector<EnumerationShard> shards(num_shards);
  for (size_t e : order) {
    size_t best = 0;
    for (size_t sh = 1; sh < num_shards; ++sh) {
      if (shards[sh].planned_emissions < shards[best].planned_emissions) {
        best = sh;
      }
    }
    shards[best].strata.push_back(entries[e]);
    shards[best].planned_emissions += entries[e].feasible;
  }
  for (EnumerationShard& shard : shards) {
    std::sort(shard.strata.begin(), shard.strata.end(),
              [](const EnumerationShard::Stratum& a,
                 const EnumerationShard::Stratum& b) {
                return a.index < b.index;
              });
  }
  return shards;
}

Status PlanEnumerator::StreamCandidates(const QueryPlan& logical,
                                        const EnumerationShard& shard,
                                        size_t chunk_size,
                                        const CandidateVisitor& visitor) const {
  if (!visitor) return Status::InvalidArgument("null candidate visitor");
  if (chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  EnumerationSpace space;
  MIDAS_RETURN_IF_ERROR(ResolveSpace(logical, &space));
  const size_t n_counts = options_.node_counts.size();
  const size_t n_sites = federation_->num_sites();
  uint64_t planned = 0;
  for (const EnumerationShard::Stratum& stratum : shard.strata) {
    planned += stratum.feasible;
  }
  const size_t reserve =
      static_cast<size_t>(std::min<uint64_t>(chunk_size, planned));
  CandidateChunk chunk;
  chunk.num_sites = n_sites;
  chunk.seqs.reserve(reserve);
  chunk.template_of.reserve(reserve);
  chunk.site_nodes.reserve(reserve * n_sites);
  const auto flush = [&]() -> Status {
    if (chunk.size() == 0) return Status::OK();
    Status status = visitor(chunk);
    chunk.templates.clear();
    chunk.seqs.clear();
    chunk.template_of.clear();
    chunk.site_nodes.clear();
    return status;
  };

  // Strata of one (variant, compute) group are adjacent in index order,
  // so each group's template is built once per stream.
  std::shared_ptr<const QueryPlan> plan_template;
  size_t template_group = std::numeric_limits<size_t>::max();
  for (const EnumerationShard::Stratum& stratum : shard.strata) {
    MIDAS_ASSIGN_OR_RETURN(StratumSpec spec,
                           MakeStratumSpec(space, stratum.index));
    const size_t group = stratum.index / n_counts;
    if (group != template_group) {
      MIDAS_ASSIGN_OR_RETURN(QueryPlan built,
                             BuildTemplate(space, spec.variant, spec.compute));
      plan_template = std::make_shared<const QueryPlan>(std::move(built));
      template_group = group;
    }
    uint64_t seq = stratum.seq_base;
    MIDAS_RETURN_IF_ERROR(ForEachPick(
        spec, stratum.feasible,
        [&](const std::vector<size_t>& pick) -> Status {
          if (chunk.templates.empty() ||
              chunk.templates.back() != plan_template) {
            chunk.templates.push_back(plan_template);
          }
          chunk.template_of.push_back(
              static_cast<uint32_t>(chunk.templates.size() - 1));
          chunk.seqs.push_back(seq++);
          const size_t row = chunk.site_nodes.size();
          chunk.site_nodes.resize(row + n_sites, 0);
          for (size_t i = 0; i < spec.used_sites.size(); ++i) {
            chunk.site_nodes[row + spec.used_sites[i]] =
                options_.node_counts[pick[i]];
          }
          return chunk.size() < chunk_size ? Status::OK() : flush();
        }));
  }
  return flush();
}

StatusOr<std::vector<QueryPlan>> PlanEnumerator::Materialize(
    const QueryPlan& logical, const std::vector<uint64_t>& seqs) const {
  EnumerationSpace space;
  MIDAS_RETURN_IF_ERROR(ResolveSpace(logical, &space));
  MIDAS_ASSIGN_OR_RETURN(std::vector<EnumerationShard::Stratum> strata,
                         PlanStrata(space));
  const uint64_t total = strata.back().seq_base + strata.back().feasible;
  // Visit the requests in sequence order so each stratum's spec and each
  // group's template are built once.
  std::vector<size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&seqs](size_t a, size_t b) { return seqs[a] < seqs[b]; });
  std::vector<QueryPlan> plans(seqs.size());
  const size_t n_counts = options_.node_counts.size();
  size_t stratum_at = 0;
  StratumSpec spec;
  bool have_spec = false;
  QueryPlan plan_template;
  size_t template_group = std::numeric_limits<size_t>::max();
  for (size_t i : order) {
    const uint64_t seq = seqs[i];
    if (seq >= total) {
      return Status::OutOfRange("plan sequence number " + std::to_string(seq) +
                                " past the " + std::to_string(total) +
                                " emitted plans");
    }
    while (seq >= strata[stratum_at].seq_base + strata[stratum_at].feasible) {
      ++stratum_at;
      have_spec = false;
    }
    const EnumerationShard::Stratum& stratum = strata[stratum_at];
    if (!have_spec) {
      MIDAS_ASSIGN_OR_RETURN(spec, MakeStratumSpec(space, stratum.index));
      have_spec = true;
    }
    if (stratum.index / n_counts != template_group) {
      MIDAS_ASSIGN_OR_RETURN(plan_template,
                             BuildTemplate(space, spec.variant, spec.compute));
      template_group = stratum.index / n_counts;
    }
    QueryPlan plan = plan_template;
    MIDAS_RETURN_IF_ERROR(AnnotatePick(
        space, spec, DecodePick(spec, seq - stratum.seq_base), &plan));
    plans[i] = std::move(plan);
  }
  return plans;
}

}  // namespace midas

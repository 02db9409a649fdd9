#include "query/enumerator.h"

#include <algorithm>
#include <cstring>
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

namespace {

bool BitwiseEqual(const TemplateKey& a, const TemplateKey& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

}  // namespace

Status PlanEnumerator::ResolveStrata(const QueryPlan& logical,
                                     PlanSpace* space,
                                     std::vector<QueryPlan>* variants) const {
  if (federation_ == nullptr || catalog_ == nullptr) {
    return Status::FailedPrecondition("enumerator missing environment");
  }
  MIDAS_RETURN_IF_ERROR(logical.Validate(*catalog_));
  if (options_.node_counts.empty()) {
    return Status::InvalidArgument("no candidate node counts");
  }
  // Checked up front rather than per plan: templates carry estimated
  // cardinalities, so a bad count must fail before any candidate exists.
  for (int count : options_.node_counts) {
    if (count <= 0) {
      return Status::InvalidArgument("node_counts must be positive, got " +
                                     std::to_string(count));
    }
  }
  space->num_sites_ = federation_->num_sites();
  space->node_counts_ = options_.node_counts;

  // Resolve base table placements once; data sites sorted + deduplicated.
  std::vector<SiteId> data_sites;
  for (const std::string& table : logical.BaseTables()) {
    MIDAS_ASSIGN_OR_RETURN(Federation::Placement placement,
                           federation_->TablePlacement(table));
    data_sites.push_back(placement.site);
    space->placements_.emplace_back(table, placement);
  }
  std::sort(data_sites.begin(), data_sites.end());
  data_sites.erase(std::unique(data_sites.begin(), data_sites.end()),
                   data_sites.end());

  // Candidate compute placements: every (site, engine) pair in the
  // federation.
  for (const CloudSite& site : federation_->sites()) {
    for (EngineKind engine : site.engines()) {
      space->computes_.push_back({site.id(), engine});
    }
  }
  if (space->computes_.empty()) {
    return Status::FailedPrecondition("federation hosts no engines");
  }
  bool has_compute_node = false;
  for (const PlanNode* node : logical.Nodes()) {
    if (node->kind != OperatorKind::kScan) {
      has_compute_node = true;
      break;
    }
  }

  // One site spec per compute placement: its participating sites are the
  // data sites plus the compute site. A site constrains feasibility iff
  // some operator actually runs there: data sites always host their
  // scans; the compute site hosts work only when the plan has a non-scan
  // operator. Unconstrained sites admit every VM count (their digit never
  // touches a plan).
  const size_t n_counts = options_.node_counts.size();
  for (const PlanSpace::Compute& compute : space->computes_) {
    PlanSpace::SiteSpec spec;
    spec.used_sites = data_sites;
    if (!std::binary_search(data_sites.begin(), data_sites.end(),
                            compute.site)) {
      spec.used_sites.push_back(compute.site);
      std::sort(spec.used_sites.begin(), spec.used_sites.end());
    }
    for (SiteId site_id : spec.used_sites) {
      const bool constrained =
          std::binary_search(data_sites.begin(), data_sites.end(), site_id) ||
          (site_id == compute.site && has_compute_node);
      auto site = federation_->site(site_id);
      std::vector<size_t>& admissible = spec.admissible.emplace_back();
      for (size_t k = 0; k < n_counts; ++k) {
        // Respect per-site elasticity limits (an unresolvable site admits
        // nothing).
        if (!constrained ||
            (site.ok() && options_.node_counts[k] <= (*site)->max_nodes())) {
          admissible.push_back(k);
        }
      }
    }
    space->site_specs_.push_back(std::move(spec));
  }

  *variants = JoinOrderVariants(logical);

  // The non-empty strata in serial order, each with its first global
  // sequence number and its size after the max_plans cap.
  const size_t n_strata = variants->size() * space->computes_.size() * n_counts;
  const uint64_t cap = options_.max_plans;
  uint64_t prefix = 0;
  for (size_t s = 0; s < n_strata && prefix < cap; ++s) {
    const uint64_t count = space->FeasibleCount(s);
    if (count > 0) {
      const uint64_t feasible = std::min(count, cap - prefix);
      space->strata_.push_back({s, prefix, feasible, prefix});
      space->size_ = prefix + feasible;
    }
    prefix = count > std::numeric_limits<uint64_t>::max() - prefix
                 ? std::numeric_limits<uint64_t>::max()
                 : prefix + count;
  }
  if (space->strata_.empty()) {
    return Status::FailedPrecondition(
        "no feasible physical plan (check node_counts vs site limits)");
  }
  space->leader_size_ = space->size_;
  return Status::OK();
}

StatusOr<std::shared_ptr<const PlanSpace>> PlanEnumerator::Resolve(
    const QueryPlan& logical, const TemplateKeyFn& key) const {
  std::shared_ptr<PlanSpace> space(new PlanSpace());
  std::vector<QueryPlan> variants;
  MIDAS_RETURN_IF_ERROR(ResolveStrata(logical, space.get(), &variants));
  const size_t n_counts = space->node_counts_.size();
  const size_t n_computes = space->computes_.size();

  // One template (and key) per group that emits a plan. Strata of one
  // group are adjacent in index order, and so are the groups of one
  // variant. Cardinalities read no physical annotation, so each variant is
  // estimated once, before its first group copies it. A group's leader is
  // the first earlier group with an equal site spec and a bitwise-equal
  // key; by transitivity that group is a leader itself.
  space->groups_.resize(variants.size() * n_computes);
  std::vector<size_t> leader_of(space->groups_.size());
  std::vector<size_t> leaders;
  size_t last_group = std::numeric_limits<size_t>::max();
  size_t last_variant = std::numeric_limits<size_t>::max();
  for (const PlanSpace::Stratum& stratum : space->strata_) {
    const size_t g = stratum.index / n_counts;
    if (g == last_group) continue;
    last_group = g;
    const size_t v = g / n_computes;
    if (v != last_variant) {
      last_variant = v;
      MIDAS_RETURN_IF_ERROR(EstimateCardinalities(*catalog_, &variants[v]));
    }
    PlanSpace::Group& group = space->groups_[g];
    const PlanSpace::Compute& compute = space->computes_[g % n_computes];
    group.plan_template = variants[v];
    MIDAS_RETURN_IF_ERROR(AnnotateNode(group.plan_template.mutable_root(),
                                       space->placements_, compute.site,
                                       compute.engine,
                                       [](SiteId) { return 1; }));
    leader_of[g] = g;
    if (!key) continue;
    MIDAS_ASSIGN_OR_RETURN(group.key, key(group.plan_template));
    for (size_t leader : leaders) {
      if (space->site_specs_[leader % n_computes] ==
              space->site_specs_[g % n_computes] &&
          BitwiseEqual(space->groups_[leader].key, group.key)) {
        leader_of[g] = leader;
        break;
      }
    }
    if (leader_of[g] == g) leaders.push_back(g);
  }

  // An alias stratum repeats the leader group's stratum at the same
  // leading digit, which has the same closed-form size and comes earlier,
  // so it is present and uncut by the max_plans cap.
  for (PlanSpace::Stratum& stratum : space->strata_) {
    const size_t g = stratum.index / n_counts;
    if (leader_of[g] == g) continue;
    const size_t leader_index =
        leader_of[g] * n_counts + stratum.index % n_counts;
    const auto leader = std::lower_bound(
        space->strata_.begin(), space->strata_.end(), leader_index,
        [](const PlanSpace::Stratum& s, size_t index) {
          return s.index < index;
        });
    if (leader == space->strata_.end() || leader->index != leader_index ||
        leader->feasible < stratum.feasible) {
      return Status::Internal("alias stratum without a leader");
    }
    stratum.leader_base = leader->seq_base;
    space->leader_size_ -= stratum.feasible;
  }
  return std::shared_ptr<const PlanSpace>(std::move(space));
}

uint64_t PlanSpace::FeasibleCount(size_t stratum_index) const {
  const SiteSpec& spec = SpecOf(stratum_index);
  const std::vector<size_t>& leading = spec.admissible.back();
  if (std::find(leading.begin(), leading.end(),
                stratum_index % node_counts_.size()) == leading.end()) {
    return 0;
  }
  // Saturate rather than overflow: callers only compare counts against
  // max_plans, so any value past the cap behaves identically.
  uint64_t product = 1;
  for (size_t i = 0; i + 1 < spec.admissible.size(); ++i) {
    const uint64_t admissible = spec.admissible[i].size();
    if (admissible == 0) return 0;
    if (product > std::numeric_limits<uint64_t>::max() / admissible) {
      return std::numeric_limits<uint64_t>::max();
    }
    product *= admissible;
  }
  return product;
}

template <typename Fn>
Status PlanSpace::ForEachPick(size_t stratum_index, uint64_t limit,
                              const Fn& fn) const {
  // Cartesian product of the admissible counts over the participating
  // sites, digit 0 fastest, with the leading (slowest) digit pinned to
  // this stratum: the serial counter order with infeasible picks skipped.
  const SiteSpec& spec = SpecOf(stratum_index);
  const size_t digits = spec.used_sites.size();
  std::vector<size_t> rank(digits, 0);
  std::vector<size_t> pick(digits);
  for (size_t d = 0; d + 1 < digits; ++d) pick[d] = spec.admissible[d][0];
  pick[digits - 1] = stratum_index % node_counts_.size();
  for (uint64_t emitted = 0; emitted < limit; ++emitted) {
    MIDAS_RETURN_IF_ERROR(fn(pick));
    size_t d = 0;
    for (; d + 1 < digits; ++d) {
      if (++rank[d] < spec.admissible[d].size()) {
        pick[d] = spec.admissible[d][rank[d]];
        break;
      }
      rank[d] = 0;
      pick[d] = spec.admissible[d][0];
    }
    if (d + 1 >= digits) break;
  }
  return Status::OK();
}

std::vector<size_t> PlanSpace::DecodePick(size_t stratum_index,
                                          uint64_t rank) const {
  // The feasible picks in counter order are the product of each digit's
  // admissible counts, digit 0 fastest: the rank is a mixed-radix number
  // over those admissible lists.
  const SiteSpec& spec = SpecOf(stratum_index);
  const size_t digits = spec.used_sites.size();
  std::vector<size_t> pick(digits);
  pick[digits - 1] = stratum_index % node_counts_.size();
  for (size_t d = 0; d + 1 < digits; ++d) {
    const std::vector<size_t>& admissible = spec.admissible[d];
    pick[d] = admissible[rank % admissible.size()];
    rank /= admissible.size();
  }
  return pick;
}

Status PlanSpace::AnnotatePick(size_t stratum_index,
                               const std::vector<size_t>& pick,
                               QueryPlan* plan) const {
  const SiteSpec& spec = SpecOf(stratum_index);
  const auto nodes_at = [&](SiteId s) {
    for (size_t i = 0; i < spec.used_sites.size(); ++i) {
      if (spec.used_sites[i] == s) return node_counts_[pick[i]];
    }
    return node_counts_[0];
  };
  const Compute& compute =
      computes_[stratum_index / node_counts_.size() % computes_.size()];
  return AnnotateNode(plan->mutable_root(), placements_, compute.site,
                      compute.engine, nodes_at);
}

StatusOr<std::vector<QueryPlan>> PlanEnumerator::EnumeratePhysical(
    const QueryPlan& logical) const {
  PlanSpace space;
  std::vector<QueryPlan> variants;
  MIDAS_RETURN_IF_ERROR(ResolveStrata(logical, &space, &variants));
  // The reference path: one annotated, cardinality-estimated tree per
  // candidate, built from the variant itself rather than a template.
  const size_t per_variant =
      space.computes_.size() * space.node_counts_.size();
  std::vector<QueryPlan> plans;
  for (const PlanSpace::Stratum& stratum : space.strata_) {
    const QueryPlan& variant = variants[stratum.index / per_variant];
    MIDAS_RETURN_IF_ERROR(space.ForEachPick(
        stratum.index, stratum.feasible,
        [&](const std::vector<size_t>& pick) -> Status {
          QueryPlan plan = variant;
          MIDAS_RETURN_IF_ERROR(space.AnnotatePick(stratum.index, pick, &plan));
          MIDAS_RETURN_IF_ERROR(EstimateCardinalities(*catalog_, &plan));
          plans.push_back(std::move(plan));
          return Status::OK();
        }));
  }
  return plans;
}

StatusOr<std::vector<EnumerationShard>> PlanSpace::PartitionShards(
    size_t num_shards) const {
  if (num_shards == 0) {
    return Status::InvalidArgument("num_shards must be positive");
  }
  // Greedy LPT over the capped leader stratum sizes: biggest strata first,
  // each to the currently lightest shard (ties to the lower shard id).
  // Fully deterministic, so every caller partitions identically.
  std::vector<size_t> order;
  for (size_t e = 0; e < strata_.size(); ++e) {
    if (!strata_[e].aliased()) order.push_back(e);
  }
  std::stable_sort(order.begin(), order.end(), [this](size_t a, size_t b) {
    return strata_[a].feasible > strata_[b].feasible;
  });
  std::vector<EnumerationShard> shards(
      num_shards, EnumerationShard(shared_from_this()));
  for (size_t e : order) {
    size_t best = 0;
    for (size_t sh = 1; sh < num_shards; ++sh) {
      if (shards[sh].planned_emissions_ < shards[best].planned_emissions_) {
        best = sh;
      }
    }
    shards[best].strata_.push_back(strata_[e]);
    shards[best].planned_emissions_ += strata_[e].feasible;
  }
  for (EnumerationShard& shard : shards) {
    std::sort(shard.strata_.begin(), shard.strata_.end(),
              [](const Stratum& a, const Stratum& b) {
                return a.index < b.index;
              });
  }
  return shards;
}

Status EnumerationShard::StreamCandidates(
    size_t chunk_size, const CandidateVisitor& visitor) const {
  return space_->Stream(strata_, chunk_size, visitor);
}

Status PlanSpace::Stream(const std::vector<Stratum>& strata,
                         size_t chunk_size,
                         const CandidateVisitor& visitor) const {
  if (!visitor) return Status::InvalidArgument("null candidate visitor");
  if (chunk_size == 0) {
    return Status::InvalidArgument("chunk_size must be positive");
  }
  const size_t n_counts = node_counts_.size();
  uint64_t planned = 0;
  for (const Stratum& stratum : strata) planned += stratum.feasible;
  const size_t reserve =
      static_cast<size_t>(std::min<uint64_t>(chunk_size, planned));
  CandidateChunk chunk;
  chunk.num_sites = num_sites_;
  chunk.seqs.reserve(reserve);
  chunk.template_of.reserve(reserve);
  chunk.site_nodes.reserve(reserve * num_sites_);
  const auto flush = [&]() -> Status {
    if (chunk.size() == 0) return Status::OK();
    Status status = visitor(chunk);
    chunk.templates.clear();
    chunk.keys.clear();
    chunk.seqs.clear();
    chunk.template_of.clear();
    chunk.site_nodes.clear();
    return status;
  };

  for (const Stratum& stratum : strata) {
    const Group& group = groups_[stratum.index / n_counts];
    const SiteSpec& spec = SpecOf(stratum.index);
    uint64_t seq = stratum.seq_base;
    MIDAS_RETURN_IF_ERROR(ForEachPick(
        stratum.index, stratum.feasible,
        [&](const std::vector<size_t>& pick) -> Status {
          // Strata of one group are adjacent, so a template enters the
          // chunk once per run of its strata.
          if (chunk.templates.empty() ||
              chunk.templates.back() != &group.plan_template) {
            chunk.templates.push_back(&group.plan_template);
            chunk.keys.push_back(&group.key);
          }
          chunk.template_of.push_back(
              static_cast<uint32_t>(chunk.templates.size() - 1));
          chunk.seqs.push_back(seq++);
          const size_t row = chunk.site_nodes.size();
          chunk.site_nodes.resize(row + num_sites_, 0);
          for (size_t i = 0; i < spec.used_sites.size(); ++i) {
            chunk.site_nodes[row + spec.used_sites[i]] =
                node_counts_[pick[i]];
          }
          return chunk.size() < chunk_size ? Status::OK() : flush();
        }));
  }
  return flush();
}

StatusOr<std::vector<QueryPlan>> PlanSpace::Materialize(
    const std::vector<uint64_t>& seqs) const {
  // Visit the requests in sequence order so the strata are walked once.
  std::vector<size_t> order(seqs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&seqs](size_t a, size_t b) { return seqs[a] < seqs[b]; });
  std::vector<QueryPlan> plans(seqs.size());
  const size_t n_counts = node_counts_.size();
  size_t stratum_at = 0;
  for (size_t i : order) {
    const uint64_t seq = seqs[i];
    if (seq >= size_) {
      return Status::OutOfRange("plan sequence number " + std::to_string(seq) +
                                " past the " + std::to_string(size_) +
                                " emitted plans");
    }
    while (seq >= strata_[stratum_at].seq_base + strata_[stratum_at].feasible) {
      ++stratum_at;
    }
    const Stratum& stratum = strata_[stratum_at];
    QueryPlan plan = groups_[stratum.index / n_counts].plan_template;
    MIDAS_RETURN_IF_ERROR(AnnotatePick(
        stratum.index, DecodePick(stratum.index, seq - stratum.seq_base),
        &plan));
    plans[i] = std::move(plan);
  }
  return plans;
}

}  // namespace midas

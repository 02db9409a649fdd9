#ifndef MIDAS_QUERY_ENUMERATOR_H_
#define MIDAS_QUERY_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/aligned.h"
#include "federation/federation.h"
#include "query/plan.h"

namespace midas {

struct EnumeratorOptions {
  /// Candidate VM counts per participating site.
  std::vector<int> node_counts = {1, 2, 4, 8};
  /// When true, also emit the commuted variant of every join.
  bool enumerate_join_orders = true;
  /// Hard cap on the number of emitted plans (guards combinatorial
  /// explosion for many-join queries).
  size_t max_plans = 20000;
};

/// Caller-supplied key of a (join-order variant, compute placement)
/// template (`PlanEnumerator::Resolve`). The enumerator never reads a key;
/// it only compares keys bitwise to find groups whose candidates a keyed
/// caller would score identically.
using TemplateKey = AlignedVector<double>;
using TemplateKeyFn =
    std::function<StatusOr<TemplateKey>(const QueryPlan& plan_template)>;

/// \brief One batch of the candidate stream (`EnumerationShard::
/// StreamCandidates`): feasible physical plans in closed form instead of
/// as plan trees.
///
/// A candidate is a *template* plus a VM-count *pick*. The template is the
/// candidate's (join-order variant, compute placement) plan with sites,
/// engines and cardinalities set; its per-operator VM counts are
/// placeholders. The pick gives every site its VM count. Candidate i's
/// plan is its template with each operator's count replaced by
/// `nodes(i)[site]` — exactly the plan `EnumeratePhysical` emits at
/// `seqs[i]`, which `PlanSpace::Materialize` rebuilds on demand.
struct CandidateChunk {
  /// Templates of this chunk's candidates, in first-use order. They belong
  /// to the plan space the stream came from, which the streaming shard
  /// keeps alive.
  std::vector<const QueryPlan*> templates;
  /// Aligned with `templates`: each template's key (empty when the space
  /// was resolved without a key function).
  std::vector<const TemplateKey*> keys;
  /// Federation sites, i.e. the stride of `site_nodes`.
  size_t num_sites = 0;
  /// Per candidate: its global sequence number (0-based emission index in
  /// `EnumeratePhysical` order).
  std::vector<uint64_t> seqs;
  /// Per candidate: index into `templates`.
  std::vector<uint32_t> template_of;
  /// Row-major size() × num_sites: the VM count candidate i's pick gives
  /// each site (0 for sites the candidate does not use).
  std::vector<int> site_nodes;

  size_t size() const { return seqs.size(); }
  const int* nodes(size_t i) const {
    return site_nodes.data() + i * num_sites;
  }
};

/// Receives one chunk of the candidate stream. Returning a non-OK status
/// aborts the stream and propagates out of `StreamCandidates`.
using CandidateVisitor = std::function<Status(const CandidateChunk& chunk)>;

class EnumerationShard;

/// \brief The physical plan space of one logical plan, resolved once
/// (`PlanEnumerator::Resolve`) and shared by everything one optimization
/// does with it: partitioning, every shard's stream and materializing the
/// selected plans.
///
/// The space factors into *strata*: one per (join-order variant × compute
/// placement × leading VM-count digit) triple, where the leading digit is
/// the slowest-moving position of the per-site VM-count counter. The
/// strata of one (variant, compute) pair form a *group*, which shares one
/// template. Serial enumeration visits strata in ascending `Stratum::index`
/// order and the plans inside one stratum contiguously, so every feasible
/// plan has a *global sequence number* — its 0-based emission index in
/// `EnumeratePhysical` order — computable per stratum in closed form
/// without enumerating anything.
///
/// Resolved with a key function, a group is an *alias* of the first
/// earlier group whose key is bitwise equal and whose participating sites
/// and admissible VM counts per site are the same. Its stratum at leading
/// digit d then emits, rank for rank, the same per-site VM counts as the
/// leader group's stratum at d, at larger sequence numbers. A caller whose
/// cost is a pure function of (key, per-site VM counts) scores an alias
/// stratum's candidates exactly as the leader's, so `PartitionShards`
/// streams leader strata only and the caller copies the rest
/// (`Stratum::leader_base`).
class PlanSpace : public std::enable_shared_from_this<PlanSpace> {
 public:
  struct Stratum {
    /// Position in the (variant × compute × leading-digit) grid, in
    /// serial enumeration order.
    size_t index = 0;
    /// Global sequence number of this stratum's first feasible plan.
    uint64_t seq_base = 0;
    /// Feasible plans the stratum emits (after the global max_plans cap).
    uint64_t feasible = 0;
    /// `seq_base` of the leader stratum whose candidates this one repeats
    /// rank for rank; its own `seq_base` when it is a leader.
    uint64_t leader_base = 0;

    bool aliased() const { return leader_base != seq_base; }
  };

  /// Plans the space emits: `EnumeratePhysical(logical).size()`.
  uint64_t size() const { return size_; }
  /// Plans in leader strata: the candidates the shards stream.
  uint64_t leader_size() const { return leader_size_; }
  /// The non-empty strata in serial order, aliases included.
  const std::vector<Stratum>& strata() const { return strata_; }

  /// Deterministically splits the leader strata into `num_shards`
  /// disjoint shards, balanced by feasible plan count (greedy
  /// longest-processing-time over the closed-form stratum sizes, ties to
  /// the lower shard id). Together the shards emit every leader
  /// candidate once, at its serial sequence number; without a key
  /// function every stratum is a leader, so they cover exactly the serial
  /// emission sequence of `EnumeratePhysical` (max_plans cap included).
  /// Shards may come back empty when there are fewer leader strata than
  /// shards. Rejects `num_shards == 0`.
  StatusOr<std::vector<EnumerationShard>> PartitionShards(
      size_t num_shards) const;

  /// Rebuilds the plans `EnumeratePhysical` emits at the global sequence
  /// numbers `seqs` (any order, repeats allowed; out[i] is the plan at
  /// seqs[i]) without enumerating the rest: whole strata are skipped by
  /// their closed-form sizes and each pick is decoded from its rank inside
  /// its stratum. Fails with OutOfRange for a sequence number past the
  /// last emitted plan.
  StatusOr<std::vector<QueryPlan>> Materialize(
      const std::vector<uint64_t>& seqs) const;

 private:
  friend class PlanEnumerator;
  friend class EnumerationShard;

  struct Compute {
    SiteId site;
    EngineKind engine;
  };

  /// What a compute placement's strata share: the participating sites and
  /// which VM counts each of them admits.
  struct SiteSpec {
    /// Data sites plus the compute site, ascending; the last one holds the
    /// leading digit.
    std::vector<SiteId> used_sites;
    /// admissible[i] — ascending indexes into node_counts that site
    /// used_sites[i] may run with (every count for a site hosting no
    /// operator of the plan).
    std::vector<std::vector<size_t>> admissible;

    bool operator==(const SiteSpec& other) const = default;
  };

  /// One (variant, compute) group, indexed `variant * |computes| +
  /// compute`. The template is built only for groups with a stratum.
  struct Group {
    QueryPlan plan_template;
    TemplateKey key;
  };

  PlanSpace() = default;

  const SiteSpec& SpecOf(size_t stratum_index) const {
    return site_specs_[stratum_index / node_counts_.size() % computes_.size()];
  }

  /// Closed-form number of feasible plans in a stratum (before the
  /// max_plans cap): the product over participating sites of the number
  /// of admissible VM counts, with the leading digit pinned.
  uint64_t FeasibleCount(size_t stratum_index) const;

  /// Calls `fn(pick)` for the first `limit` feasible picks of stratum
  /// `stratum_index` in serial order; `pick[i]` indexes node_counts for
  /// site used_sites[i].
  template <typename Fn>
  Status ForEachPick(size_t stratum_index, uint64_t limit,
                     const Fn& fn) const;

  /// The pick of rank `rank` among a stratum's feasible picks (serial
  /// order), decoded in closed form.
  std::vector<size_t> DecodePick(size_t stratum_index, uint64_t rank) const;

  /// Annotates every operator of `plan` (a clone of the stratum's variant
  /// or template) with the stratum's placement and the pick's VM counts.
  Status AnnotatePick(size_t stratum_index, const std::vector<size_t>& pick,
                      QueryPlan* plan) const;

  /// The candidate stream of `strata` (ascending, from this space).
  Status Stream(const std::vector<Stratum>& strata, size_t chunk_size,
                const CandidateVisitor& visitor) const;

  size_t num_sites_ = 0;
  std::vector<int> node_counts_;
  std::vector<std::pair<std::string, Federation::Placement>> placements_;
  std::vector<Compute> computes_;
  /// One per compute placement, aligned with computes_.
  std::vector<SiteSpec> site_specs_;
  std::vector<Group> groups_;
  std::vector<Stratum> strata_;
  uint64_t size_ = 0;
  uint64_t leader_size_ = 0;
};

/// \brief One disjoint slice of a plan space's leader strata, produced by
/// `PlanSpace::PartitionShards` only. A shard holds the space it came
/// from, so it streams that space's candidates and no other, and stays
/// valid after the caller drops its own handle to the space.
class EnumerationShard {
 public:
  using Stratum = PlanSpace::Stratum;

  /// Owned strata, ascending by `index`.
  const std::vector<Stratum>& strata() const { return strata_; }
  /// Total plans this shard emits (sum of `Stratum::feasible`).
  uint64_t planned_emissions() const { return planned_emissions_; }

  /// Candidate stream of this shard: exactly the candidates
  /// `EnumeratePhysical` emits in the shard's strata (ascending stratum
  /// order, serial order within each, same sequence numbers and max_plans
  /// cap), handed to `visitor` in chunks of at most `chunk_size`. Uses the
  /// space's templates and builds no plan per candidate, so the stream
  /// costs O(chunk) memory and no tree copies. An empty shard emits
  /// nothing and is not an error. `chunk_size` must be positive and
  /// `visitor` non-null.
  Status StreamCandidates(size_t chunk_size,
                          const CandidateVisitor& visitor) const;

 private:
  friend class PlanSpace;
  explicit EnumerationShard(std::shared_ptr<const PlanSpace> space)
      : space_(std::move(space)) {}

  std::shared_ptr<const PlanSpace> space_;
  std::vector<Stratum> strata_;
  uint64_t planned_emissions_ = 0;
};

/// \brief Generates the set P of equivalent physical QEPs for a logical
/// plan in a federation (§2.3): join-order commutations × compute
/// site/engine placement × per-site VM counts.
///
/// Scans are pinned to their table's placement (data does not move at rest);
/// every other operator is assigned to a chosen compute (site, engine), and
/// each participating site gets a VM count from `node_counts` — the
/// x_nodeA / x_nodeB knobs of Example 2.1. In a cloud the same logical plan
/// thus explodes into many equivalent QEPs (Example 3.1).
class PlanEnumerator {
 public:
  PlanEnumerator(const Federation* federation, const Catalog* catalog,
                 EnumeratorOptions options = EnumeratorOptions());

  /// Emits fully annotated physical plans with cardinalities estimated:
  /// the reference the resolved space is checked against, one tree built
  /// from the join-order variant per candidate. The logical plan must
  /// validate, every scanned table must have a placement in the federation
  /// and every node count must be positive.
  StatusOr<std::vector<QueryPlan>> EnumeratePhysical(
      const QueryPlan& logical) const;

  /// Resolves the plan space of `logical` once: table placements, compute
  /// placements, join-order variants, the capped strata with their
  /// sequence numbers, one site spec per compute placement and one
  /// template per (variant, compute) group that emits a plan. With `key`,
  /// each such template's key is `key(template)`, and groups are aliased
  /// as `PlanSpace` describes; a failing key fails the call with its
  /// status. Fails with `EnumeratePhysical`'s errors, and with "no
  /// feasible physical plan" when the whole space is infeasible.
  StatusOr<std::shared_ptr<const PlanSpace>> Resolve(
      const QueryPlan& logical, const TemplateKeyFn& key = {}) const;

  /// Example 3.1: number of distinct (vCPU, memory-GiB) execution
  /// configurations available from a resource pool — 70 x 260 = 18,200.
  static uint64_t CountResourceConfigurations(int vcpu_pool,
                                              int memory_gib_pool);

 private:
  /// Everything but the templates, keys and aliases: what both
  /// `EnumeratePhysical` and `Resolve` need. `variants` receives the
  /// join-order variants.
  Status ResolveStrata(const QueryPlan& logical, PlanSpace* space,
                       std::vector<QueryPlan>* variants) const;

  std::vector<QueryPlan> JoinOrderVariants(const QueryPlan& logical) const;

  const Federation* federation_;
  const Catalog* catalog_;
  EnumeratorOptions options_;
};

}  // namespace midas

#endif  // MIDAS_QUERY_ENUMERATOR_H_

#ifndef MIDAS_QUERY_ENUMERATOR_H_
#define MIDAS_QUERY_ENUMERATOR_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

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

/// \brief One disjoint slice of the physical plan space, produced by
/// `PlanEnumerator::PartitionShards`.
///
/// The plan space factors into *strata*: one per (join-order variant ×
/// compute placement × leading VM-count digit) triple, where the leading
/// digit is the slowest-moving position of the per-site VM-count counter.
/// Serial enumeration visits strata in ascending `Stratum::index` order
/// and the plans inside one stratum contiguously, so every feasible plan
/// has a *global sequence number* — its 0-based emission index in
/// `EnumeratePhysical` order — computable per stratum in closed form
/// without enumerating anything. A shard owns whole strata; shards from
/// one `PartitionShards` call are disjoint and together cover exactly the
/// serial emission sequence (max_plans cap included).
struct EnumerationShard {
  struct Stratum {
    /// Position in the (variant × compute × leading-digit) grid, in
    /// serial enumeration order.
    size_t index = 0;
    /// Global sequence number of this stratum's first feasible plan.
    uint64_t seq_base = 0;
    /// Feasible plans the stratum emits (after the global max_plans cap).
    uint64_t feasible = 0;
  };
  /// Owned strata, ascending by `index`.
  std::vector<Stratum> strata;
  /// Total plans this shard emits (sum of `Stratum::feasible`).
  uint64_t planned_emissions = 0;
};

/// \brief One batch of the candidate stream (`PlanEnumerator::
/// StreamCandidates`): feasible physical plans in closed form instead of
/// as plan trees.
///
/// A candidate is a *template* plus a VM-count *pick*. The template is the
/// candidate's (join-order variant, compute placement) plan with sites,
/// engines and cardinalities set; its per-operator VM counts are
/// placeholders. The pick gives every site its VM count. Candidate i's
/// plan is its template with each operator's count replaced by
/// `nodes(i)[site]` — exactly the plan `EnumeratePhysical` emits at
/// `seqs[i]`, which `PlanEnumerator::Materialize` rebuilds on demand.
struct CandidateChunk {
  /// Templates of this chunk's candidates, in first-use order. One
  /// template object serves every chunk of a stream that uses it.
  std::vector<std::shared_ptr<const QueryPlan>> templates;
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

  /// Receives one chunk of the candidate stream. Returning a non-OK
  /// status aborts the stream and propagates out of `StreamCandidates`.
  using CandidateVisitor = std::function<Status(const CandidateChunk& chunk)>;

  /// Emits fully annotated physical plans with cardinalities estimated.
  /// The logical plan must validate, every scanned table must have a
  /// placement in the federation and every node count must be positive.
  StatusOr<std::vector<QueryPlan>> EnumeratePhysical(
      const QueryPlan& logical) const;

  /// Deterministically splits the plan space of `logical` into
  /// `num_shards` disjoint shards of whole strata, balanced by feasible
  /// plan count (greedy longest-processing-time over the closed-form
  /// stratum sizes, ties to the lower shard id). The union of the shards
  /// is exactly the serial emission sequence of `EnumeratePhysical` —
  /// same plans, same global sequence numbers, same max_plans cap.
  /// Shards may come back empty when there are fewer non-empty strata
  /// than shards. Fails with `EnumeratePhysical`'s resolution errors,
  /// with "no feasible physical plan" when the whole space is infeasible,
  /// and rejects `num_shards == 0`.
  StatusOr<std::vector<EnumerationShard>> PartitionShards(
      const QueryPlan& logical, size_t num_shards) const;

  /// Candidate stream of one shard: exactly the candidates
  /// `EnumeratePhysical` emits in the shard's strata (ascending stratum
  /// order, serial order within each, same sequence numbers and max_plans
  /// cap), handed to `visitor` in chunks of at most `chunk_size`. The
  /// single shard of `PartitionShards(logical, 1)` is the whole serial
  /// stream. Builds one template per (variant, compute) and no plan per
  /// candidate, so the stream costs O(chunk) memory and no tree copies. An
  /// empty shard emits nothing and is not an error — infeasibility of the
  /// whole space is `PartitionShards`'s job. The shard must come from
  /// `PartitionShards` on the same enumerator and logical plan;
  /// `chunk_size` must be positive and `visitor` non-null.
  Status StreamCandidates(const QueryPlan& logical,
                          const EnumerationShard& shard, size_t chunk_size,
                          const CandidateVisitor& visitor) const;

  /// Rebuilds the plans `EnumeratePhysical` emits at the global sequence
  /// numbers `seqs` (any order, repeats allowed; out[i] is the plan at
  /// seqs[i]) without enumerating the rest: whole strata are skipped by
  /// their closed-form sizes and each pick is decoded from its rank inside
  /// its stratum. Fails with `EnumeratePhysical`'s errors, and with
  /// OutOfRange for a sequence number past the last emitted plan.
  StatusOr<std::vector<QueryPlan>> Materialize(
      const QueryPlan& logical, const std::vector<uint64_t>& seqs) const;

  /// Example 3.1: number of distinct (vCPU, memory-GiB) execution
  /// configurations available from a resource pool — 70 x 260 = 18,200.
  static uint64_t CountResourceConfigurations(int vcpu_pool,
                                              int memory_gib_pool);

 private:
  struct Compute {
    SiteId site;
    EngineKind engine;
  };

  /// Everything `logical`'s plan space depends on, resolved once per
  /// enumeration: table placements, candidate computes, join-order
  /// variants. The stratum grid is
  /// `variants × computes × node_counts` (leading digit last,
  /// `Stratum::index = (v * |computes| + c) * |node_counts| + digit`).
  struct EnumerationSpace {
    std::vector<SiteId> data_sites;
    std::vector<std::pair<std::string, Federation::Placement>> placements;
    std::vector<Compute> computes;
    std::vector<QueryPlan> variants;
    /// True when the plan has at least one non-scan operator, i.e. the
    /// compute site actually hosts work and constrains feasibility.
    bool has_compute_node = false;
  };

  /// Per-stratum derived state: the participating sites and which VM
  /// counts each of them admits.
  struct StratumSpec {
    size_t variant = 0;
    size_t compute = 0;
    size_t leading_digit = 0;
    std::vector<SiteId> used_sites;
    /// allowed[i][k] — may site used_sites[i] run with node_counts[k]?
    /// (Always true for a site hosting no operator of the plan.)
    std::vector<std::vector<char>> allowed;
  };

  Status ResolveSpace(const QueryPlan& logical, EnumerationSpace* space) const;

  StatusOr<StratumSpec> MakeStratumSpec(const EnumerationSpace& space,
                                        size_t stratum_index) const;

  /// Closed-form number of feasible plans in a stratum (before the
  /// max_plans cap): the product over participating sites of the number
  /// of admissible VM counts, with the leading digit pinned.
  static uint64_t StratumFeasibleCount(const StratumSpec& spec);

  /// The non-empty strata of the whole space in serial order, each with
  /// its first global sequence number and its size after the max_plans
  /// cap. Fails with "no feasible physical plan" when there are none.
  StatusOr<std::vector<EnumerationShard::Stratum>> PlanStrata(
      const EnumerationSpace& space) const;

  /// Calls `fn(pick)` for the first `limit` feasible picks of a stratum in
  /// serial order; `pick[i]` indexes node_counts for site used_sites[i].
  template <typename Fn>
  Status ForEachPick(const StratumSpec& spec, uint64_t limit,
                     const Fn& fn) const;

  /// The pick of rank `rank` among a stratum's feasible picks (serial
  /// order), decoded in closed form.
  static std::vector<size_t> DecodePick(const StratumSpec& spec,
                                        uint64_t rank);

  /// A (variant, compute) template: the variant annotated with the
  /// compute placement, placeholder VM counts and estimated cardinalities
  /// (which read no physical annotation).
  StatusOr<QueryPlan> BuildTemplate(const EnumerationSpace& space,
                                    size_t variant, size_t compute) const;

  /// Annotates every operator of `plan` (a clone of the stratum's variant
  /// or template) with the stratum's placement and the pick's VM counts.
  Status AnnotatePick(const EnumerationSpace& space, const StratumSpec& spec,
                      const std::vector<size_t>& pick, QueryPlan* plan) const;

  std::vector<QueryPlan> JoinOrderVariants(const QueryPlan& logical) const;

  const Federation* federation_;
  const Catalog* catalog_;
  EnumeratorOptions options_;
};

}  // namespace midas

#endif  // MIDAS_QUERY_ENUMERATOR_H_

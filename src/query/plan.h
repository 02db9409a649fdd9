#ifndef MIDAS_QUERY_PLAN_H_
#define MIDAS_QUERY_PLAN_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "federation/site.h"
#include "query/predicate.h"
#include "query/schema.h"

namespace midas {

/// \brief Relational operators a Query Execution Plan is built from
/// (the set O of §2.3).
enum class OperatorKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
};

std::string OperatorKindName(OperatorKind kind);

/// \brief One node of a QEP tree: the logical operator, its physical
/// annotations (which site/engine executes it and with how many VMs), and
/// the cardinality estimates derived for it.
struct PlanNode {
  OperatorKind kind = OperatorKind::kScan;

  // --- logical payload (fields used depend on `kind`) ---
  std::string table;                    // kScan: base table name
  /// kScan: fraction of the table actually read (partition pruning on
  /// date-range predicates); 1.0 = full scan.
  double scan_fraction = 1.0;
  std::vector<Predicate> predicates;    // kFilter
  std::vector<std::string> columns;     // kProject: retained columns
  std::string left_join_column;         // kJoin
  std::string right_join_column;        // kJoin
  std::optional<double> join_selectivity_override;  // kJoin
  uint64_t num_groups = 1;              // kAggregate: output groups

  // --- physical annotations (set by the enumerator / optimizer) ---
  std::optional<SiteId> site;
  std::optional<EngineKind> engine;
  int num_nodes = 1;

  // --- derived statistics (filled by EstimateCardinalities) ---
  double output_rows = 0.0;
  double output_bytes = 0.0;

  std::vector<std::unique_ptr<PlanNode>> children;

  /// Pooled allocation: enumeration materialises and frees millions of
  /// node trees, so PlanNodes draw from slab-backed thread-local free
  /// lists instead of the global heap — no allocator lock on the shard
  /// hot path. Whole batches of free slots move between threads through a
  /// locked depot, so nodes freed on another thread are reused; slabs
  /// live for the process lifetime. Disabled under asan so it keeps full
  /// heap instrumentation on nodes.
  static void* operator new(size_t size);
  static void operator delete(void* ptr, size_t size) noexcept;

  std::unique_ptr<PlanNode> Clone() const;
  /// Copies the node's payload and annotations but none of its children —
  /// for callers (e.g. the enumerator's commutation recursion) that
  /// rebuild the child list themselves instead of paying for a deep copy
  /// they would immediately discard. Like IdenticalPlans and HashPlan, it
  /// reads every field: a new field belongs in all three.
  std::unique_ptr<PlanNode> CloneShallow() const;
};

namespace internal {
/// Slabs the PlanNode pool has carved from the heap so far; nullopt when
/// the pool is compiled out. A test hook for the pool's reuse bound.
std::optional<uint64_t> PlanNodeSlabsCarved();
}  // namespace internal

/// \brief A Query Execution Plan p ∈ P: an operator tree over base tables.
class QueryPlan {
 public:
  QueryPlan() = default;
  explicit QueryPlan(std::unique_ptr<PlanNode> root) : root_(std::move(root)) {}

  QueryPlan(const QueryPlan& other);
  QueryPlan& operator=(const QueryPlan& other);
  QueryPlan(QueryPlan&&) = default;
  QueryPlan& operator=(QueryPlan&&) = default;

  bool empty() const { return root_ == nullptr; }
  const PlanNode* root() const { return root_.get(); }
  PlanNode* mutable_root() { return root_.get(); }

  /// Detaches and returns the root, leaving the plan empty (used by
  /// Combine to splice plans without copying).
  std::unique_ptr<PlanNode> ReleaseRoot() { return std::move(root_); }

  /// Pre-order list of all nodes (root first).
  std::vector<const PlanNode*> Nodes() const;
  std::vector<PlanNode*> MutableNodes();

  /// Names of all base tables scanned by the plan.
  std::vector<std::string> BaseTables() const;

  /// Checks the tree is structurally sound and resolvable against the
  /// catalog (tables/columns exist, operator arities correct).
  Status Validate(const Catalog& catalog) const;

  /// Indented textual rendering for debugging and the examples.
  std::string ToString() const;

 private:
  std::unique_ptr<PlanNode> root_;
};

/// Leaf constructors.
std::unique_ptr<PlanNode> MakeScan(const std::string& table);
std::unique_ptr<PlanNode> MakeFilter(std::unique_ptr<PlanNode> input,
                                     std::vector<Predicate> predicates);
std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> input,
                                      std::vector<std::string> columns);
std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   const std::string& left_column,
                                   const std::string& right_column);
std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> input,
                                        uint64_t num_groups);
std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> input);

/// The paper's Combine(p1, p2, o) (§2.3): a plan is divisible into two
/// sub-plans joined by an operator. Consumes both inputs; `op` must be a
/// binary operator (currently kJoin).
StatusOr<QueryPlan> Combine(QueryPlan p1, QueryPlan p2, OperatorKind op,
                            const std::string& left_column,
                            const std::string& right_column);

/// Fills output_rows / output_bytes for every node bottom-up using System-R
/// style estimation: scans read the full table, filters apply conjunction
/// selectivity, joins use 1/max(NDV) (or the override), aggregates emit
/// num_groups rows, projects scale width by retained columns. A
/// scan_fraction outside (0, 1], or a filter or join selectivity override
/// outside [0, 1], NaN included, fails with InvalidArgument.
Status EstimateCardinalities(const Catalog& catalog, QueryPlan* plan);

/// Exact structural identity: every PlanNode and Predicate field is equal,
/// children in order, and doubles (optional ones included) are compared
/// bitwise, so 0.0 and -0.0 differ and a NaN equals its own bits. Two
/// empty plans are identical.
bool IdenticalPlans(const QueryPlan& a, const QueryPlan& b);

/// A hash over the fields IdenticalPlans compares: identical plans hash
/// equal.
uint64_t HashPlan(const QueryPlan& plan);

}  // namespace midas

#endif  // MIDAS_QUERY_PLAN_H_

#include "query/plan.h"

#include <algorithm>
#include <atomic>
#include <cstring>
#include <functional>
#include <mutex>
#include <sstream>
#include <utility>

namespace midas {

std::string OperatorKindName(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kScan:
      return "Scan";
    case OperatorKind::kFilter:
      return "Filter";
    case OperatorKind::kProject:
      return "Project";
    case OperatorKind::kJoin:
      return "Join";
    case OperatorKind::kAggregate:
      return "Aggregate";
    case OperatorKind::kSort:
      return "Sort";
  }
  return "?";
}

namespace {

#if defined(__SANITIZE_ADDRESS__)
#define MIDAS_PLAN_NODE_POOL_DISABLED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define MIDAS_PLAN_NODE_POOL_DISABLED 1
#endif
#endif

#ifndef MIDAS_PLAN_NODE_POOL_DISABLED

// Slab pool behind PlanNode::operator new/delete. Each thread caches free
// slots in two lists of at most kBatchSlots: `current`, which allocation
// pops and freeing pushes, and `spare`, either empty or one whole batch.
// That hot path takes no lock and no atomic. Batches move between threads
// through a mutex-guarded depot: a thread whose cache would exceed two
// batches hands its spare batch to the depot, and a thread whose cache is
// empty takes a batch from the depot before it carves a new slab from the
// heap. So nodes freed on another thread than the one that allocated them
// (a client destroying a served plan) are reused, and the slabs carved
// stay bounded by the peak number of live nodes plus two batches per
// thread. Cross-thread handoff of a node itself is the caller's
// synchronisation, as with any allocator. Slabs are intentionally
// retained for the process lifetime: static destructors may still free
// PlanNodes.
struct FreeSlot {
  FreeSlot* next;        // next free slot of the same list
  FreeSlot* next_batch;  // depot only, in a batch's first slot
  size_t batch_slots;    // depot only, in a batch's first slot
};

constexpr size_t kBatchSlots = 256;
constexpr size_t kSlotSize =
    sizeof(PlanNode) > sizeof(FreeSlot) ? sizeof(PlanNode) : sizeof(FreeSlot);

struct SlotList {
  FreeSlot* head = nullptr;
  size_t size = 0;
};

struct Depot {
  std::mutex mutex;
  FreeSlot* batches = nullptr;  // stack of lists, linked by next_batch
};

// Never destroyed: frees during static destruction still reach it.
Depot& GetDepot() {
  static Depot* depot = new Depot();
  return *depot;
}

std::atomic<uint64_t> g_slabs_carved{0};

void DepotPush(const SlotList& list) {
  if (list.head == nullptr) return;
  Depot& depot = GetDepot();
  std::lock_guard<std::mutex> lock(depot.mutex);
  list.head->batch_slots = list.size;
  list.head->next_batch = depot.batches;
  depot.batches = list.head;
}

SlotList DepotPop() {
  Depot& depot = GetDepot();
  std::lock_guard<std::mutex> lock(depot.mutex);
  FreeSlot* head = depot.batches;
  if (head == nullptr) return {};
  depot.batches = head->next_batch;
  return {head, head->batch_slots};
}

SlotList CarveSlab() {
  g_slabs_carved.fetch_add(1, std::memory_order_relaxed);
  // sizeof(PlanNode) is a multiple of its alignment and ::operator new
  // returns max_align_t-aligned storage, so consecutive slots are
  // correctly aligned for PlanNode.
  char* slab = static_cast<char*>(::operator new(kBatchSlots * kSlotSize));
  SlotList list;
  for (size_t i = kBatchSlots; i > 0; --i) {
    auto* slot = reinterpret_cast<FreeSlot*>(slab + (i - 1) * kSlotSize);
    slot->next = list.head;
    list.head = slot;
  }
  list.size = kBatchSlots;
  return list;
}

// Trivially destructible, so the hot path needs no TLS init guard.
struct ThreadCache {
  SlotList current;
  SlotList spare;
  bool flushes_at_exit = false;  // t_flusher constructed
};
thread_local ThreadCache t_cache;

// Returns the thread's cached slots to the depot when the thread exits.
// Constructed by the thread's first refill, the only code that names it.
struct ThreadCacheFlusher {
  ThreadCacheFlusher() { t_cache.flushes_at_exit = true; }
  ThreadCacheFlusher(const ThreadCacheFlusher&) = delete;
  ThreadCacheFlusher& operator=(const ThreadCacheFlusher&) = delete;
  ~ThreadCacheFlusher() {
    DepotPush(t_cache.current);
    DepotPush(t_cache.spare);
    t_cache.current = SlotList();
    t_cache.spare = SlotList();
  }
};
thread_local ThreadCacheFlusher t_flusher;

void Refill(ThreadCache& cache) {
  if (!cache.flushes_at_exit) static_cast<void>(&t_flusher);
  if (cache.spare.head != nullptr) {
    std::swap(cache.current, cache.spare);
    return;
  }
  cache.current = DepotPop();
  if (cache.current.head == nullptr) cache.current = CarveSlab();
}

void* PoolAllocate() {
  ThreadCache& cache = t_cache;
  if (cache.current.head == nullptr) Refill(cache);
  FreeSlot* slot = cache.current.head;
  cache.current.head = slot->next;
  --cache.current.size;
  return slot;
}

void PoolFree(void* ptr) {
  ThreadCache& cache = t_cache;
  if (cache.current.size == kBatchSlots) {
    DepotPush(cache.spare);
    cache.spare = cache.current;
    cache.current = SlotList();
  }
  auto* slot = static_cast<FreeSlot*>(ptr);
  slot->next = cache.current.head;
  cache.current.head = slot;
  ++cache.current.size;
}

#endif  // MIDAS_PLAN_NODE_POOL_DISABLED

}  // namespace

namespace internal {

std::optional<uint64_t> PlanNodeSlabsCarved() {
#ifndef MIDAS_PLAN_NODE_POOL_DISABLED
  return g_slabs_carved.load(std::memory_order_relaxed);
#else
  return std::nullopt;
#endif
}

}  // namespace internal

void* PlanNode::operator new(size_t size) {
#ifndef MIDAS_PLAN_NODE_POOL_DISABLED
  if (size == sizeof(PlanNode)) return PoolAllocate();
#endif
  return ::operator new(size);
}

void PlanNode::operator delete(void* ptr, size_t size) noexcept {
  if (ptr == nullptr) return;
#ifndef MIDAS_PLAN_NODE_POOL_DISABLED
  if (size == sizeof(PlanNode)) {
    PoolFree(ptr);
    return;
  }
#endif
  ::operator delete(ptr, size);
}

std::unique_ptr<PlanNode> PlanNode::Clone() const {
  auto copy = CloneShallow();
  copy->children.reserve(children.size());
  for (const auto& child : children) copy->children.push_back(child->Clone());
  return copy;
}

std::unique_ptr<PlanNode> PlanNode::CloneShallow() const {
  auto copy = std::make_unique<PlanNode>();
  copy->kind = kind;
  copy->table = table;
  copy->scan_fraction = scan_fraction;
  copy->predicates = predicates;
  copy->columns = columns;
  copy->left_join_column = left_join_column;
  copy->right_join_column = right_join_column;
  copy->join_selectivity_override = join_selectivity_override;
  copy->num_groups = num_groups;
  copy->site = site;
  copy->engine = engine;
  copy->num_nodes = num_nodes;
  copy->output_rows = output_rows;
  copy->output_bytes = output_bytes;
  return copy;
}

QueryPlan::QueryPlan(const QueryPlan& other)
    : root_(other.root_ ? other.root_->Clone() : nullptr) {}

QueryPlan& QueryPlan::operator=(const QueryPlan& other) {
  if (this != &other) {
    root_ = other.root_ ? other.root_->Clone() : nullptr;
  }
  return *this;
}

namespace {

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

bool SameBits(const std::optional<double>& a, const std::optional<double>& b) {
  return a.has_value() == b.has_value() && (!a || Bits(*a) == Bits(*b));
}

bool IdenticalNodes(const PlanNode& a, const PlanNode& b) {
  if (a.kind != b.kind || a.table != b.table ||
      Bits(a.scan_fraction) != Bits(b.scan_fraction) ||
      a.predicates.size() != b.predicates.size() || a.columns != b.columns ||
      a.left_join_column != b.left_join_column ||
      a.right_join_column != b.right_join_column ||
      !SameBits(a.join_selectivity_override, b.join_selectivity_override) ||
      a.num_groups != b.num_groups || a.site != b.site ||
      a.engine != b.engine || a.num_nodes != b.num_nodes ||
      Bits(a.output_rows) != Bits(b.output_rows) ||
      Bits(a.output_bytes) != Bits(b.output_bytes) ||
      a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    const Predicate& pa = a.predicates[i];
    const Predicate& pb = b.predicates[i];
    if (pa.column != pb.column || pa.op != pb.op ||
        !SameBits(pa.selectivity_override, pb.selectivity_override)) {
      return false;
    }
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!IdenticalNodes(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

// Order-sensitive 64-bit combine (boost::hash_combine's mixing step).
void Mix(uint64_t* hash, uint64_t value) {
  *hash ^= value + 0x9e3779b97f4a7c15ULL + (*hash << 6) + (*hash >> 2);
}

void Mix(uint64_t* hash, const std::string& value) {
  Mix(hash, std::hash<std::string>()(value));
}

// An absent value mixes in a NaN payload no arithmetic produces, so it is
// unlikely to collide with a present one.
void Mix(uint64_t* hash, const std::optional<double>& value) {
  Mix(hash, value.has_value() ? Bits(*value) : 0x7ff4000000000001ULL);
}

void HashNode(const PlanNode& node, uint64_t* hash) {
  Mix(hash, static_cast<uint64_t>(node.kind));
  Mix(hash, node.table);
  Mix(hash, Bits(node.scan_fraction));
  for (const Predicate& p : node.predicates) {
    Mix(hash, p.column);
    Mix(hash, static_cast<uint64_t>(p.op));
    Mix(hash, p.selectivity_override);
  }
  Mix(hash, node.predicates.size());
  for (const std::string& column : node.columns) Mix(hash, column);
  Mix(hash, node.columns.size());
  Mix(hash, node.left_join_column);
  Mix(hash, node.right_join_column);
  Mix(hash, node.join_selectivity_override);
  Mix(hash, node.num_groups);
  Mix(hash, node.site.has_value() ? *node.site + 1 : 0);
  Mix(hash, node.engine.has_value() ? static_cast<uint64_t>(*node.engine) + 1
                                    : 0);
  Mix(hash, static_cast<uint64_t>(static_cast<int64_t>(node.num_nodes)));
  Mix(hash, Bits(node.output_rows));
  Mix(hash, Bits(node.output_bytes));
  for (const auto& child : node.children) HashNode(*child, hash);
  Mix(hash, node.children.size());
}

}  // namespace

bool IdenticalPlans(const QueryPlan& a, const QueryPlan& b) {
  if (a.empty() || b.empty()) return a.empty() == b.empty();
  return IdenticalNodes(*a.root(), *b.root());
}

uint64_t HashPlan(const QueryPlan& plan) {
  uint64_t hash = 0;
  if (!plan.empty()) HashNode(*plan.root(), &hash);
  return hash;
}

namespace {

void CollectPreOrder(const PlanNode* node,
                     std::vector<const PlanNode*>* out) {
  if (node == nullptr) return;
  out->push_back(node);
  for (const auto& child : node->children) CollectPreOrder(child.get(), out);
}

void CollectPreOrderMutable(PlanNode* node, std::vector<PlanNode*>* out) {
  if (node == nullptr) return;
  out->push_back(node);
  for (auto& child : node->children) {
    CollectPreOrderMutable(child.get(), out);
  }
}

size_t ExpectedArity(OperatorKind kind) {
  switch (kind) {
    case OperatorKind::kScan:
      return 0;
    case OperatorKind::kJoin:
      return 2;
    default:
      return 1;
  }
}

}  // namespace

std::vector<const PlanNode*> QueryPlan::Nodes() const {
  std::vector<const PlanNode*> out;
  CollectPreOrder(root_.get(), &out);
  return out;
}

std::vector<PlanNode*> QueryPlan::MutableNodes() {
  std::vector<PlanNode*> out;
  CollectPreOrderMutable(root_.get(), &out);
  return out;
}

std::vector<std::string> QueryPlan::BaseTables() const {
  std::vector<std::string> out;
  for (const PlanNode* node : Nodes()) {
    if (node->kind == OperatorKind::kScan) out.push_back(node->table);
  }
  return out;
}

Status QueryPlan::Validate(const Catalog& catalog) const {
  if (root_ == nullptr) return Status::InvalidArgument("empty plan");
  for (const PlanNode* node : Nodes()) {
    if (node->children.size() != ExpectedArity(node->kind)) {
      return Status::InvalidArgument(
          OperatorKindName(node->kind) + " expects " +
          std::to_string(ExpectedArity(node->kind)) + " inputs, has " +
          std::to_string(node->children.size()));
    }
    if (node->kind == OperatorKind::kScan && !catalog.Contains(node->table)) {
      return Status::NotFound("scan of unknown table: " + node->table);
    }
    if (node->kind == OperatorKind::kJoin &&
        (node->left_join_column.empty() || node->right_join_column.empty())) {
      return Status::InvalidArgument("join without join columns");
    }
    if (node->num_nodes <= 0) {
      return Status::InvalidArgument("operator annotated with <= 0 VMs");
    }
  }
  return Status::OK();
}

std::string QueryPlan::ToString() const {
  std::ostringstream os;
  struct Frame {
    const PlanNode* node;
    int depth;
  };
  std::vector<Frame> stack;
  if (root_) stack.push_back({root_.get(), 0});
  while (!stack.empty()) {
    Frame f = stack.back();
    stack.pop_back();
    os << std::string(static_cast<size_t>(f.depth) * 2, ' ')
       << OperatorKindName(f.node->kind);
    if (f.node->kind == OperatorKind::kScan) os << "(" << f.node->table << ")";
    if (f.node->kind == OperatorKind::kJoin) {
      os << "(" << f.node->left_join_column << " = "
         << f.node->right_join_column << ")";
    }
    if (f.node->engine.has_value()) {
      os << " @" << EngineKindName(*f.node->engine);
      if (f.node->site.has_value()) os << "/site" << *f.node->site;
      os << " x" << f.node->num_nodes;
    }
    if (f.node->output_rows > 0.0) {
      os << "  [rows=" << static_cast<uint64_t>(f.node->output_rows) << "]";
    }
    os << "\n";
    // Push children in reverse so the left child prints first.
    for (auto it = f.node->children.rbegin(); it != f.node->children.rend();
         ++it) {
      stack.push_back({it->get(), f.depth + 1});
    }
  }
  return os.str();
}

std::unique_ptr<PlanNode> MakeScan(const std::string& table) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kScan;
  node->table = table;
  return node;
}

std::unique_ptr<PlanNode> MakeFilter(std::unique_ptr<PlanNode> input,
                                     std::vector<Predicate> predicates) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kFilter;
  node->predicates = std::move(predicates);
  node->children.push_back(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> MakeProject(std::unique_ptr<PlanNode> input,
                                      std::vector<std::string> columns) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kProject;
  node->columns = std::move(columns);
  node->children.push_back(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> MakeJoin(std::unique_ptr<PlanNode> left,
                                   std::unique_ptr<PlanNode> right,
                                   const std::string& left_column,
                                   const std::string& right_column) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kJoin;
  node->left_join_column = left_column;
  node->right_join_column = right_column;
  node->children.push_back(std::move(left));
  node->children.push_back(std::move(right));
  return node;
}

std::unique_ptr<PlanNode> MakeAggregate(std::unique_ptr<PlanNode> input,
                                        uint64_t num_groups) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kAggregate;
  node->num_groups = num_groups;
  node->children.push_back(std::move(input));
  return node;
}

std::unique_ptr<PlanNode> MakeSort(std::unique_ptr<PlanNode> input) {
  auto node = std::make_unique<PlanNode>();
  node->kind = OperatorKind::kSort;
  node->children.push_back(std::move(input));
  return node;
}

StatusOr<QueryPlan> Combine(QueryPlan p1, QueryPlan p2, OperatorKind op,
                            const std::string& left_column,
                            const std::string& right_column) {
  if (op != OperatorKind::kJoin) {
    return Status::InvalidArgument("Combine requires a binary operator");
  }
  if (p1.empty() || p2.empty()) {
    return Status::InvalidArgument("Combine of an empty plan");
  }
  auto joined = MakeJoin(p1.ReleaseRoot(), p2.ReleaseRoot(), left_column,
                         right_column);
  return QueryPlan(std::move(joined));
}

namespace {

struct NodeStats {
  double rows = 0.0;
  double width = 0.0;  // bytes per row
  // NDV of the join column as seen at this node (propagated from the base
  // table, capped by the current row count).
  double join_ndv = 1.0;
};

// Finds the NDV of `column` in any base table below `node`.
double FindColumnNdv(const Catalog& catalog, const PlanNode& node,
                     const std::string& column) {
  if (node.kind == OperatorKind::kScan) {
    auto table = catalog.Find(node.table);
    if (!table.ok()) return 1.0;
    auto col = (*table)->FindColumn(column);
    if (!col.ok()) return 0.0;  // column not here
    return static_cast<double>((*col)->distinct_values);
  }
  for (const auto& child : node.children) {
    const double ndv = FindColumnNdv(catalog, *child, column);
    if (ndv > 0.0) return ndv;
  }
  return 0.0;
}

// Locates the base table that provides `column` under `node` (for filter
// selectivity estimation).
const TableDef* FindProvidingTable(const Catalog& catalog,
                                   const PlanNode& node,
                                   const std::string& column) {
  if (node.kind == OperatorKind::kScan) {
    auto table = catalog.Find(node.table);
    if (!table.ok()) return nullptr;
    if ((*table)->FindColumn(column).ok()) return *table;
    return nullptr;
  }
  for (const auto& child : node.children) {
    const TableDef* t = FindProvidingTable(catalog, *child, column);
    if (t != nullptr) return t;
  }
  return nullptr;
}

// True for a selectivity in [0, 1]; false for NaN.
bool IsSelectivity(double s) { return s >= 0.0 && s <= 1.0; }

StatusOr<NodeStats> EstimateNode(const Catalog& catalog, PlanNode* node) {
  NodeStats stats;
  switch (node->kind) {
    case OperatorKind::kScan: {
      MIDAS_ASSIGN_OR_RETURN(const TableDef* table,
                             catalog.Find(node->table));
      // Written so that a NaN fraction fails too.
      if (!(node->scan_fraction > 0.0 && node->scan_fraction <= 1.0)) {
        return Status::InvalidArgument("scan_fraction outside (0, 1]");
      }
      stats.rows = static_cast<double>(table->row_count) *
                   node->scan_fraction;
      stats.width = table->RowWidthBytes();
      break;
    }
    case OperatorKind::kFilter: {
      MIDAS_ASSIGN_OR_RETURN(NodeStats in,
                             EstimateNode(catalog, node->children[0].get()));
      double selectivity = 1.0;
      for (const Predicate& p : node->predicates) {
        const TableDef* table =
            FindProvidingTable(catalog, *node->children[0], p.column);
        if (table == nullptr && !p.selectivity_override.has_value()) {
          return Status::NotFound("filter column unresolvable: " + p.column);
        }
        if (p.selectivity_override.has_value()) {
          if (!IsSelectivity(*p.selectivity_override)) {
            return Status::InvalidArgument(
                "selectivity override outside [0, 1]");
          }
          selectivity *= *p.selectivity_override;
        } else {
          MIDAS_ASSIGN_OR_RETURN(double s, EstimateSelectivity(*table, p));
          selectivity *= s;
        }
      }
      stats.rows = in.rows * std::clamp(selectivity, 0.0, 1.0);
      stats.width = in.width;
      break;
    }
    case OperatorKind::kProject: {
      MIDAS_ASSIGN_OR_RETURN(NodeStats in,
                             EstimateNode(catalog, node->children[0].get()));
      stats.rows = in.rows;
      // Width of the retained columns, resolved against base tables.
      double width = 0.0;
      for (const std::string& col : node->columns) {
        const TableDef* table =
            FindProvidingTable(catalog, *node->children[0], col);
        if (table == nullptr) {
          return Status::NotFound("projected column unresolvable: " + col);
        }
        MIDAS_ASSIGN_OR_RETURN(const ColumnDef* cd, table->FindColumn(col));
        width += cd->avg_width_bytes;
      }
      stats.width = width > 0.0 ? width : in.width;
      break;
    }
    case OperatorKind::kJoin: {
      MIDAS_ASSIGN_OR_RETURN(NodeStats left,
                             EstimateNode(catalog, node->children[0].get()));
      MIDAS_ASSIGN_OR_RETURN(NodeStats right,
                             EstimateNode(catalog, node->children[1].get()));
      double selectivity;
      if (node->join_selectivity_override.has_value()) {
        selectivity = *node->join_selectivity_override;
        if (!IsSelectivity(selectivity)) {
          return Status::InvalidArgument(
              "join selectivity override outside [0, 1]");
        }
      } else {
        const double ndv_l =
            FindColumnNdv(catalog, *node->children[0], node->left_join_column);
        const double ndv_r = FindColumnNdv(catalog, *node->children[1],
                                           node->right_join_column);
        if (ndv_l <= 0.0 || ndv_r <= 0.0) {
          return Status::NotFound("join column unresolvable");
        }
        selectivity = 1.0 / std::max(ndv_l, ndv_r);
      }
      stats.rows = left.rows * right.rows * selectivity;
      stats.width = left.width + right.width;
      break;
    }
    case OperatorKind::kAggregate: {
      MIDAS_ASSIGN_OR_RETURN(NodeStats in,
                             EstimateNode(catalog, node->children[0].get()));
      stats.rows = std::min(in.rows, static_cast<double>(node->num_groups));
      stats.width = 16.0;  // group key + aggregate value
      break;
    }
    case OperatorKind::kSort: {
      MIDAS_ASSIGN_OR_RETURN(NodeStats in,
                             EstimateNode(catalog, node->children[0].get()));
      stats = in;
      break;
    }
  }
  node->output_rows = stats.rows;
  node->output_bytes = stats.rows * stats.width;
  return stats;
}

}  // namespace

Status EstimateCardinalities(const Catalog& catalog, QueryPlan* plan) {
  if (plan == nullptr || plan->empty()) {
    return Status::InvalidArgument("empty plan");
  }
  MIDAS_RETURN_IF_ERROR(plan->Validate(catalog));
  return EstimateNode(catalog, plan->mutable_root()).status();
}

}  // namespace midas

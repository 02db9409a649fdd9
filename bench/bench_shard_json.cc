// Sharded streaming MOQP benchmark: partitions a >10^6-plan enumeration
// (3-table chain join over a 3-cloud federation, VM counts 1-44 per
// site) into 1/2/4/8 disjoint shards and times the whole
// enumerate -> batched-cost -> Pareto-fold -> merge pipeline at each
// shard count. Every sharded run is cross-checked bitwise against the
// serial single-stream front (matches_serial) and the process exits
// nonzero on any mismatch, so the benchmark doubles as a correctness
// gate. Writes a text report (argv[1]) and machine-readable JSON
// (argv[2], written by `scripts/bench.sh shard` to BENCH_shard.json);
// `--quick` shrinks the fleet to ~10^5 plans for CI. The host's
// hardware_concurrency is recorded alongside the timings: on a
// single-core host the shard counts time the partition/merge overhead,
// not parallel speedup.

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>
#include "bench_env_common.h"

#include "common/statistics.h"
#include "common/text_table.h"
#include "ires/moo_optimizer.h"
#include "query/enumerator.h"

namespace midas {
namespace {

struct FederationEnv {
  Federation federation;
  Catalog catalog;
};

// Three single-engine clouds, one table each: the chain join's plan
// space is 4 join orders x 3 computes x node_counts^3 picks.
FederationEnv MakeFederationEnv(int max_nodes) {
  FederationEnv env;
  const struct {
    const char* name;
    EngineKind engine;
    ProviderKind provider;
    const char* node;
  } sites[] = {
      {"cloud-A", EngineKind::kHive, ProviderKind::kAmazon, "a1.xlarge"},
      {"cloud-B", EngineKind::kPostgres, ProviderKind::kMicrosoft, "B2S"},
      {"cloud-C", EngineKind::kSpark, ProviderKind::kAmazon, "m4.large"},
  };
  std::vector<SiteId> ids;
  for (const auto& s : sites) {
    SiteConfig config;
    config.name = s.name;
    config.engines = {s.engine};
    config.node_type = {s.provider, s.node, 4, 8.0, 0.0, 0.02};
    config.max_nodes = max_nodes;
    ids.push_back(env.federation.AddSite(config).ValueOrDie());
  }
  NetworkLink wan;
  wan.bandwidth_mbps = 200.0;
  wan.egress_price_per_gib = 0.09;
  for (size_t i = 0; i < ids.size(); ++i) {
    for (size_t j = i + 1; j < ids.size(); ++j) {
      env.federation.network().SetSymmetricLink(ids[i], ids[j], wan)
          .CheckOK();
    }
  }

  const struct {
    const char* name;
    size_t rows;
  } tables[] = {{"t1", 500000}, {"t2", 40000}, {"t3", 8000}};
  for (size_t i = 0; i < 3; ++i) {
    TableDef def;
    def.name = tables[i].name;
    def.row_count = tables[i].rows;
    def.columns = {{"id", ColumnType::kInt, 8.0, tables[i].rows}};
    env.catalog.AddTable(def).CheckOK();
    env.federation.PlaceTable(tables[i].name, ids[i], sites[i].engine)
        .CheckOK();
  }
  return env;
}

QueryPlan ChainJoin() {
  return QueryPlan(MakeJoin(MakeJoin(MakeScan("t1"), MakeScan("t2"), "id",
                                     "id"),
                            MakeScan("t3"), "id", "id"));
}

// Cheap pure-linear batch predictor with alternating signs so the front
// is a genuine trade-off: timings stay dominated by the sharded
// enumerate/fold/merge machinery under comparison.
MultiObjectiveOptimizer::BatchCostPredictor LinearBatchPredictor() {
  return [](const Matrix& features, Matrix* costs) -> Status {
    *costs = Matrix(features.rows(), 2, 0.0);
    for (size_t r = 0; r < features.rows(); ++r) {
      double seconds = 100.0;
      double dollars = 0.05;
      for (size_t c = 0; c < features.cols(); ++c) {
        seconds += (c % 2 == 0 ? 0.05 : -1.5) * features(r, c);
        dollars += (c % 2 == 0 ? 1e-4 : 2e-3) * features(r, c);
      }
      (*costs)(r, 0) = seconds;
      (*costs)(r, 1) = dollars;
    }
    return Status::OK();
  };
}

struct ShardRow {
  size_t shards = 0;
  double total_seconds = 0.0;
  size_t candidates = 0;
  size_t rows_costed = 0;
  size_t peak_resident = 0;
  size_t pareto_size = 0;
  double speedup_vs_1shard = 0.0;
  bool matches_serial = true;
  std::vector<MoqpShardStats> per_shard;
};

}  // namespace
}  // namespace midas

int main(int argc, char** argv) {
  using namespace midas;  // NOLINT: bench brevity

  bool quick = false;
  std::vector<const char*> paths;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--quick") {
      quick = true;
    } else {
      paths.push_back(argv[i]);
    }
  }

  // Open the sinks before the timing runs: a bad path should fail in
  // milliseconds, not after the million-plan sweep.
  std::ofstream file;
  if (!paths.empty()) {
    file.open(paths[0]);
    if (!file) {
      std::cerr << "cannot open " << paths[0] << " for writing\n";
      return 1;
    }
  }
  std::ostream& out = paths.empty() ? std::cout : file;

  // Full: VM counts 1-44 per site -> 4 x 3 x 44^3 = 1,022,208 plans.
  // Quick: 1-22 -> 4 x 3 x 22^3 = 127,776 plans.
  const int max_nodes = quick ? 22 : 44;
  FederationEnv env = MakeFederationEnv(max_nodes);
  const QueryPlan logical = ChainJoin();
  QueryPolicy policy;
  policy.weights = {0.5, 0.5};
  const auto predictor = LinearBatchPredictor();

  EnumeratorOptions enumerator;
  enumerator.node_counts.clear();
  for (int n = 1; n <= max_nodes; ++n) enumerator.node_counts.push_back(n);
  enumerator.max_plans = 2000000;

  std::vector<Vector> baseline_front;
  size_t baseline_chosen = 0;
  size_t baseline_candidates = 0;
  size_t baseline_rows_costed = 0;

  std::vector<ShardRow> rows;
  for (size_t shards : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    MoqpOptions options;
    options.enumerator = enumerator;
    options.shards = shards;
    MultiObjectiveOptimizer optimizer(&env.federation, &env.catalog,
                                      options);
    ShardRow row;
    row.shards = shards;
    const double t0 = MonotonicSeconds();
    StatusOr<MoqpResult> result =
        optimizer.Optimize(logical, predictor, policy);
    result.status().CheckOK();
    row.total_seconds = MonotonicSeconds() - t0;
    row.candidates = result->candidates_examined;
    row.rows_costed = result->rows_costed;
    row.peak_resident = result->peak_resident_candidates;
    row.pareto_size = result->pareto_costs.size();
    row.per_shard = result->shard_stats;
    if (shards == 1) {
      baseline_front = result->pareto_costs;
      baseline_chosen = result->chosen;
      baseline_candidates = result->candidates_examined;
      baseline_rows_costed = result->rows_costed;
    }
    row.matches_serial = result->pareto_costs == baseline_front &&
                         result->chosen == baseline_chosen &&
                         result->candidates_examined == baseline_candidates &&
                         result->rows_costed == baseline_rows_costed;
    row.speedup_vs_1shard = row.total_seconds > 0.0
                                ? rows.empty()
                                      ? 1.0
                                      : rows.front().total_seconds /
                                            row.total_seconds
                                : 0.0;
    rows.push_back(std::move(row));
  }

  const unsigned hardware = std::thread::hardware_concurrency();
  out << "Sharded streaming MOQP pipeline (" << rows.front().candidates
      << " candidates, " << rows.front().rows_costed
      << " rows costed, 3-table chain join over 3 clouds, VM counts 1-"
      << max_nodes << ", hardware_concurrency " << hardware << ")\n";
  TextTable table({"shards", "total", "plans/sec", "speedup", "peak resident",
                   "front", "matches serial"});
  bool all_match = true;
  for (const ShardRow& row : rows) {
    all_match = all_match && row.matches_serial;
    table.AddRow(
        {std::to_string(row.shards),
         FormatDouble(row.total_seconds * 1e3, 1) + " ms",
         FormatDouble(static_cast<double>(row.candidates) / row.total_seconds,
                      0),
         FormatDouble(row.speedup_vs_1shard, 2) + "x",
         std::to_string(row.peak_resident), std::to_string(row.pareto_size),
         row.matches_serial ? "yes" : "NO"});
  }
  table.Print(out);
  out << "\nReading: each shard owns whole strata of the plan-space grid "
         "and runs the full enumerate/cost/fold pipeline; the shard "
         "archives are tree-merged and re-sequenced, so the front is "
         "byte-for-byte the serial one at every shard count. Speedup "
         "tracks hardware_concurrency — on a single-core host the rows "
         "time the partition/merge overhead instead.\n";

  if (paths.size() > 1) {
    std::ofstream json(paths[1]);
    if (!json) {
      std::cerr << "cannot open " << paths[1] << " for writing\n";
      return 1;
    }
    json << "{\n  \"benchmark\": \"moqp_sharded_streaming\",\n";
    json << "  \"git_commit\": \"" << GitCommitOrUnknown() << "\",\n";
    json << "  \"setup\": \"3-table chain join over a 3-cloud federation, "
            "VM counts 1-"
         << max_nodes
         << " per site; linear batch predictor; sharded feature-row Optimize "
            "vs the serial single stream\",\n";
    json << "  \"quick\": " << (quick ? "true" : "false") << ",\n";
    json << "  \"hardware_concurrency\": " << hardware << ",\n";
    json << "  \"candidates_examined\": " << rows.front().candidates
         << ",\n";
    json << "  \"rows_costed\": " << rows.front().rows_costed << ",\n";
    json << "  \"results\": [\n";
    for (size_t i = 0; i < rows.size(); ++i) {
      const ShardRow& row = rows[i];
      json << "    {\"shards\": " << row.shards
           << ", \"total_seconds\": " << FormatDouble(row.total_seconds, 4)
           << ", \"plans_per_sec\": "
           << FormatDouble(
                  static_cast<double>(row.candidates) / row.total_seconds, 0)
           << ", \"speedup_vs_1shard\": "
           << FormatDouble(row.speedup_vs_1shard, 3)
           << ", \"peak_resident_candidates\": " << row.peak_resident
           << ", \"pareto_size\": " << row.pareto_size
           << ", \"matches_serial\": "
           << (row.matches_serial ? "true" : "false")
           << ", \"shard_stats\": [";
      for (size_t s = 0; s < row.per_shard.size(); ++s) {
        const MoqpShardStats& stats = row.per_shard[s];
        json << (s == 0 ? "" : ", ") << "{\"shard\": " << stats.shard
             << ", \"rows_costed\": " << stats.rows_costed
             << ", \"front\": " << stats.front_size
             << ", \"plans_per_sec\": "
             << FormatDouble(stats.plans_per_sec, 0) << "}";
      }
      json << "]}" << (i + 1 < rows.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
  }

  if (!all_match) {
    std::cerr << "FAIL: sharded front diverged from the serial stream\n";
    return 1;
  }
  return 0;
}

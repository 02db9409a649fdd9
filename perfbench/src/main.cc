// End-to-end benchmark runner for MIDAS: runs one workload (see
// perfbench/README.md) with a fixed amount of work derived from --seconds,
// checks every query's output, and prints one JSON report line. With
// --trace 1 it runs the layer-by-layer trace instead: each query is driven
// through the public calls RunQuery composes, in lock step with RunQuery on
// an identical twin system, and the spans are written to --trace-dir.
//
//   perfbench_runner --workload deep_history --seed 2019 --seconds 20 --trace 0

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "common/cpu_features.h"
#include "linalg/simd.h"
#include "report.h"
#include "serve/query_service.h"
#include "workload.h"

namespace perfbench {
namespace {

/// Set-ups per run; setup_s reports their median.
constexpr size_t kSetups = 9;
/// Threads the runner itself runs while the service serves: the generator.
constexpr size_t kGeneratorThreads = 1;
/// Calibration units run before and after a set-up or a service block; a
/// serial query is followed by one unit.
constexpr size_t kBracketUnits = 10;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_dir;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != value.c_str() && *end == '\0';
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = end != value.c_str() && *end == '\0' && args->seconds > 0;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else if (key == "--trace-dir") {
      args->trace_dir = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && have_seed && have_seconds;
}

size_t Nproc() {
  const unsigned n = std::thread::hardware_concurrency();
  return n == 0 ? 1 : n;
}

double Ms(double seconds) { return seconds * 1e3; }

void SetCostMetrics(const CostAccumulator& costs, Report* report) {
  report->Set("mre_seconds", costs.mre_seconds(), "ratio", costs.count);
  report->Set("mre_dollars", costs.mre_dollars(), "ratio", costs.count);
  report->Set("plan_seconds", costs.plan_seconds(), "s", costs.count);
  report->Set("plan_dollars", costs.plan_dollars(), "usd", costs.count);
}

/// Runs `setup` kSetups times, keeping the last result, each bracketed by
/// host calibrations; reports the median scaled to the reference speed,
/// and unscaled as raw.setup_s. `teardown` frees the previous result
/// before each set-up, untimed.
template <typename Teardown, typename Setup>
void TimedSetups(const WorkloadSpec& spec, Report* report,
                 const Teardown& teardown, const Setup& setup) {
  HostCalibration calibration;
  std::vector<double> scaled, raw;
  double before = calibration.Measure(kBracketUnits);
  for (size_t i = 0; i < kSetups; ++i) {
    teardown();
    const double start = Now();
    setup();
    const double seconds = Now() - start;
    const double after = calibration.Measure(kBracketUnits);
    raw.push_back(seconds);
    scaled.push_back(seconds * HostCalibration::Scale(0.5 * (before + after),
                                                      spec.host_sensitivity));
    before = after;
  }
  report->Set("setup_s", Median(scaled), "s", scaled.size());
  report->Set("raw.setup_s", Median(raw), "s", raw.size());
}

/// \brief Per-layer metrics of a traced run: busy time per query for every
/// layer span, per-query counters, and the gap to the untraced twin.
class LayerSummary {
 public:
  /// One lock-step query: the twin's untraced RunQuery wall time.
  void AddUntraced(double seconds) {
    untraced_seconds_ += seconds;
    ++queries_;
  }

  void Emit(const Tracer& tracer, Report* report) const {
    const double q = std::max<double>(1.0, static_cast<double>(queries_));
    const auto per_query_ms = [&](const char* span) {
      return Ms(tracer.Total(span)) / q;
    };
    report->Set("ires.snapshot_acquire_ms",
                per_query_ms("ires.snapshot_acquire"), "ms", queries_);
    report->Set("regression.dream_fit_ms", per_query_ms("regression.dream_fit"),
                "ms", queries_);
    report->Set("query.enumerate_ms", per_query_ms("query.enumerate"), "ms",
                queries_);
    report->Set("ires.features_ms", per_query_ms("ires.features"), "ms",
                queries_);
    report->Set("ires.predict_ms", per_query_ms("ires.predict"), "ms",
                queries_);
    report->Set("optimizer.pareto_ms", per_query_ms("optimizer.pareto"), "ms",
                queries_);
    report->Set("optimizer.select_ms", per_query_ms("optimizer.select"), "ms",
                queries_);
    report->Set("engine.execute_ms", per_query_ms("engine.execute"), "ms",
                queries_);
    report->Set("ires.record_ms", per_query_ms("ires.record"), "ms", queries_);

    report->Set("query.plans", counters.plans / q, "count", queries_);
    report->Set("ires.predict_calls", counters.predict_calls / q, "count",
                queries_);
    report->Set("optimizer.front_size", counters.front_size / q, "count",
                queries_);
    report->Set("regression.dream_window", counters.dream_window / q, "count",
                queries_);
    report->Set("regression.dream_converged_ratio",
                counters.dream_converged / q, "ratio", queries_);

    double layers = 0.0;
    for (size_t i = 0; i < kNumLayerSpans; ++i) {
      layers += tracer.Total(kLayerSpans[i]);
    }
    const double traced = tracer.Total(kQuerySpan);
    report->Set("midas.unattributed_ms", Ms(untraced_seconds_ - layers) / q,
                "ms", queries_);
    report->Set("trace.overhead_ratio",
                untraced_seconds_ > 0 ? traced / untraced_seconds_ - 1.0 : 0.0,
                "ratio", queries_);
  }

  LayerCounters counters;

 private:
  double untraced_seconds_ = 0.0;
  uint64_t queries_ = 0;
};

/// The service-only metrics; zero on the serial workloads, which have no
/// admission queue, slots or publish stamps of their own.
struct ServeSummary {
  std::vector<double> submit_ms, queue_ms, service_ms, publish_ms;
  uint64_t rejected = 0;
  double slot_busy_ratio = 0.0;

  void Emit(Report* report) const {
    report->Set("serve.submit_ms", Mean(submit_ms), "ms", submit_ms.size());
    report->Set("serve.queue_ms_p50", Quantile(queue_ms, 0.50), "ms",
                queue_ms.size());
    report->Set("serve.queue_ms_p99", Quantile(queue_ms, 0.99), "ms",
                queue_ms.size());
    report->Set("serve.service_ms", Mean(service_ms), "ms", service_ms.size());
    report->Set("serve.publish_ms", Mean(publish_ms), "ms", publish_ms.size());
    report->Set("serve.rejected", static_cast<double>(rejected), "count",
                submit_ms.size());
    report->Set("serve.slot_busy_ratio", slot_busy_ratio, "ratio",
                service_ms.size());
  }
};

void WriteTrace(const Args& args, const WorkloadSpec& spec,
                const Tracer& tracer, Report* report) {
  if (args.trace_dir.empty()) return;
  const std::string path = args.trace_dir + "/" + spec.name + "-seed" +
                           std::to_string(args.seed) + ".spans.jsonl";
  report->Check(tracer.WriteJsonLines(path), "cannot write " + path);
  report->Note("trace_file", path);
}

/// Drives `query` through RunQuery on `untraced` and through the traced
/// decomposition on `traced` (an identical twin), alternating which goes
/// first, and checks that both reproduce each other.
void LockStepQuery(midas::MidasSystem* untraced, midas::MidasSystem* traced,
                   const std::string& scope, const midas::QueryPlan& logical,
                   const midas::QueryPolicy& policy, uint64_t query,
                   Tracer* tracer, LayerSummary* layers, Report* report,
                   Outcome* out) {
  midas::StatusOr<midas::QueryOutcome> plain = midas::Status::OK();
  midas::StatusOr<Outcome> decomposed = midas::Status::OK();
  double plain_seconds = 0.0;
  const auto run_plain = [&] {
    const double start = Now();
    plain = untraced->RunQuery(scope, logical, policy);
    plain_seconds = Now() - start;
  };
  const auto run_traced = [&] {
    decomposed = TracedRunQuery(traced, scope, logical, policy, query, tracer,
                                &layers->counters);
  };
  if (query % 2 == 0) {
    run_plain();
    run_traced();
  } else {
    run_traced();
    run_plain();
  }
  ++report->attempted;
  if (!plain.ok() || !decomposed.ok()) {
    ++report->failed;
    const midas::Status& status =
        plain.ok() ? decomposed.status() : plain.status();
    report->Fail("query " + std::to_string(query) +
                 " failed: " + status.ToString());
    return;
  }
  layers->AddUntraced(plain_seconds);
  *out = FromQueryOutcome(*plain);
  CheckOutcome(*out, query, report);
  CheckOutcome(*decomposed, query, report);
  CheckSameOutcome(*out, *decomposed, query, "traced vs RunQuery", report);
}

void RunSerial(const WorkloadSpec& spec, const WorkloadInputs& in,
               const Args& args, Report* report) {
  if (args.trace) {
    Tracer tracer;
    LayerSummary layers;
    auto untraced = BuildSystem(spec, in.system_seed, in.query);
    auto traced = BuildSystem(spec, in.system_seed, in.query);
    for (size_t q = 0; q < in.timed_queries; ++q) {
      Outcome outcome;
      LockStepQuery(untraced.get(), traced.get(),
                    in.scopes[q % in.scopes.size()], in.query, in.policies[q],
                    q, &tracer, &layers, report, &outcome);
    }
    layers.Emit(tracer, report);
    ServeSummary().Emit(report);
    WriteTrace(args, spec, tracer, report);
    return;
  }

  std::unique_ptr<midas::MidasSystem> system;
  TimedSetups(
      spec, report, [&] { system.reset(); },
      [&] { system = BuildSystem(spec, in.system_seed, in.query); });

  // One calibration unit after every query: each block's host speed is
  // sampled all through the block.
  HostCalibration calibration;
  Timeline timeline(in.timed_queries, in.block_queries,
                    spec.host_sensitivity);
  CostAccumulator costs;
  double calibration_sum = 0.0;
  for (size_t q = 0; q < in.timed_queries; ++q) {
    const double before = Now();
    midas::StatusOr<midas::QueryOutcome> outcome = system->RunQuery(
        in.scopes[q % in.scopes.size()], in.query, in.policies[q]);
    const double after = Now();
    ++report->attempted;
    if (outcome.ok()) {
      timeline.Complete(q, before, after - before);
      const Outcome out = FromQueryOutcome(*outcome);
      CheckOutcome(out, q, report);
      costs.Add(out);
    } else {
      ++report->failed;
      timeline.Fail(q, before);
      report->Fail("query " + std::to_string(q) +
                   " failed: " + outcome.status().ToString());
    }
    calibration_sum += calibration.Measure();
    if ((q + 1) % in.block_queries == 0 || q + 1 == in.timed_queries) {
      const size_t block = q / in.block_queries;
      const size_t in_block = q + 1 - block * in.block_queries;
      timeline.Calibrated(block, calibration_sum / in_block);
      calibration_sum = 0.0;
    }
  }
  timeline.Emit(report);
  SetCostMetrics(costs, report);
  report->Set("peak_rss_mb", PeakRssMb(), "MB", 1);
}

struct Submitted {
  size_t query = 0;
  double submit_start = 0.0;
  double submit_seconds = 0.0;
  std::future<midas::QueryService::Result> result;
};

/// A served query kept for the serial replay check.
struct ServedQuery {
  size_t query = 0;
  Outcome outcome;
  bool present = false;
};

void RunService(const WorkloadSpec& spec, const WorkloadInputs& in,
                const Args& args, Report* report) {
  // Thread budget: the generator plus the service slots stay within nproc,
  // and at most nproc requests are in flight.
  const size_t nproc = Nproc();
  const size_t slots =
      nproc > kGeneratorThreads ? nproc - kGeneratorThreads : 1;
  const size_t in_flight = std::max<size_t>(nproc, 2);
  report->Note("generator_threads", static_cast<double>(kGeneratorThreads));
  report->Note("service_slots", static_cast<double>(slots));
  report->Note("max_in_flight", static_cast<double>(in_flight));
  report->Check(
      kGeneratorThreads + slots <= nproc,
      "thread budget: generator threads + service slots exceed nproc");

  midas::ServeOptions options;
  options.slots = slots;
  options.queue_capacity = in_flight;
  // Round robin over hundreds of tenants with a handful in flight never
  // sends a tenant's next request before its previous one completed.
  options.tenant_inflight_cap = 1;

  std::unique_ptr<midas::MidasSystem> system;
  std::unique_ptr<midas::QueryService> service;
  const auto teardown = [&] {
    service.reset();
    system.reset();
  };
  const auto setup = [&] {
    system = BuildSystem(spec, in.system_seed, in.query);
    service = std::make_unique<midas::QueryService>(system.get(), options);
  };
  if (args.trace) {
    setup();
  } else {
    TimedSetups(spec, report, teardown, setup);
  }

  // The untraced run replays the first block in execution order only, to
  // keep its wall time near --seconds; the traced run replays every query.
  const size_t replayed = args.trace ? in.timed_queries : in.block_queries;
  std::vector<ServedQuery> by_seq(replayed);
  std::vector<char> seq_seen(in.timed_queries + 1, 0);

  ServeSummary serve;
  Timeline timeline(in.timed_queries, in.block_queries,
                    spec.host_sensitivity);
  CostAccumulator costs;
  std::deque<Submitted> pending;
  const auto collect = [&] {
    Submitted s = std::move(pending.front());
    pending.pop_front();
    midas::QueryService::Result result = s.result.get();
    if (!result.ok()) {
      ++report->failed;
      timeline.Fail(s.query, s.submit_start);
      report->Fail("query " + std::to_string(s.query) +
                   " failed: " + result.status().ToString());
      return;
    }
    // Submit time plus the service's own queue and service stamps, so the
    // order the generator collects results in adds nothing.
    timeline.Complete(s.query, s.submit_start,
                      s.submit_seconds + result->queue_seconds +
                          result->service_seconds);
    serve.queue_ms.push_back(Ms(result->queue_seconds));
    serve.service_ms.push_back(Ms(result->service_seconds));
    serve.publish_ms.push_back(Ms(result->publish_seconds));
    Outcome outcome = FromQueryOutcome(result->outcome);
    CheckOutcome(outcome, s.query, report);
    costs.Add(outcome);
    const uint64_t seq = result->execution_seq;
    const bool seq_ok = seq >= 1 && seq <= in.timed_queries && !seq_seen[seq];
    report->Check(seq_ok, "execution_seq repeated or out of range (query " +
                              std::to_string(s.query) + ")");
    if (!seq_ok) return;
    seq_seen[seq] = 1;
    if (seq <= replayed) {
      by_seq[seq - 1] = ServedQuery{s.query, std::move(outcome), true};
    }
  };
  const auto submit = [&](size_t q) {
    const std::string& tenant = in.scopes[q % in.scopes.size()];
    ++report->attempted;
    const double before = Now();
    auto submitted = service->Submit(
        tenant, midas::QueryRequest{tenant, in.query, in.policies[q]});
    const double submit_seconds = Now() - before;
    serve.submit_ms.push_back(Ms(submit_seconds));
    if (!submitted.ok()) {
      ++serve.rejected;
      ++report->failed;
      timeline.Fail(q, before);
      report->Fail("query " + std::to_string(q) +
                   " rejected: " + submitted.status().ToString());
      return;
    }
    pending.push_back(
        Submitted{q, before, submit_seconds, std::move(*submitted)});
  };

  // Closed loop, block by block: at most in_flight requests outstanding,
  // the oldest awaited first; the pipeline drains at each block's end and
  // every vCPU runs the host calibration before the next block.
  double before = HostCalibration::MeasureConcurrently(nproc, kBracketUnits);
  const double start = Now();
  for (size_t block = 0; block < timeline.blocks(); ++block) {
    const size_t first = block * in.block_queries;
    const size_t last = std::min(in.timed_queries, first + in.block_queries);
    for (size_t q = first; q < last; ++q) {
      if (pending.size() >= in_flight) collect();
      submit(q);
    }
    while (!pending.empty()) collect();
    const double after =
        HostCalibration::MeasureConcurrently(nproc, kBracketUnits);
    timeline.Calibrated(block, 0.5 * (before + after));
    before = after;
  }
  const double wall = Now() - start;
  service->Shutdown();

  double busy = 0.0;
  for (double ms : serve.service_ms) busy += ms / 1e3;
  serve.slot_busy_ratio =
      wall > 0 ? busy / (static_cast<double>(slots) * wall) : 0.0;

  if (!args.trace) {
    timeline.Emit(report);
    SetCostMetrics(costs, report);
    report->Set("peak_rss_mb", PeakRssMb(), "MB", 1);
  }
  teardown();

  // Serial replay in execution_seq order on a fresh system must reproduce
  // every served outcome: QueryService's replay guarantee for tenant ==
  // scope. The traced run replays through the layer calls, in lock step
  // with RunQuery on a twin system.
  report->Note("replayed_queries", static_cast<double>(replayed));
  auto replay = BuildSystem(spec, in.system_seed, in.query);
  std::unique_ptr<midas::MidasSystem> twin;
  Tracer tracer;
  LayerSummary layers;
  if (args.trace) twin = BuildSystem(spec, in.system_seed, in.query);
  const uint64_t attempted = report->attempted, failed = report->failed;
  for (size_t i = 0; i < by_seq.size(); ++i) {
    const ServedQuery& sq = by_seq[i];
    if (!sq.present) {
      report->Fail("no served query with execution_seq " +
                   std::to_string(i + 1));
      break;
    }
    const std::string& scope = in.scopes[sq.query % in.scopes.size()];
    Outcome replayed_outcome;
    if (args.trace) {
      LockStepQuery(replay.get(), twin.get(), scope, in.query,
                    in.policies[sq.query], sq.query, &tracer, &layers, report,
                    &replayed_outcome);
    } else {
      midas::StatusOr<midas::QueryOutcome> outcome =
          replay->RunQuery(scope, in.query, in.policies[sq.query]);
      if (!outcome.ok()) {
        report->Fail("replay of query " + std::to_string(sq.query) +
                     " failed: " + outcome.status().ToString());
        break;
      }
      replayed_outcome = FromQueryOutcome(*outcome);
    }
    CheckSameOutcome(sq.outcome, replayed_outcome, sq.query,
                     "replay vs served", report);
  }
  // The replay re-runs served queries; they are not new attempts.
  report->Check(report->failed == failed, "replayed query failed");
  report->attempted = attempted;
  report->failed = failed;
  if (args.trace) {
    layers.Emit(tracer, report);
    serve.Emit(report);
    WriteTrace(args, spec, tracer, report);
  }
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed <n> --seconds <s> "
                 "[--trace 0|1] [--trace-dir <dir>]\n",
                 argv[0]);
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  const WorkloadInputs inputs = MakeInputs(*spec, args.seed, args.seconds);

  Report report;
  report.Note("workload", spec->name);
  report.Note("seed", static_cast<double>(args.seed));
  report.Note("trace", args.trace ? 1.0 : 0.0);
  report.Note("seconds_arg", args.seconds);
  report.Note("timed_queries", static_cast<double>(inputs.timed_queries));
  report.Note("scopes", static_cast<double>(inputs.scopes.size()));
  report.Note("nproc", static_cast<double>(Nproc()));
  report.Note("simd_tier", midas::SimdTierName(midas::simd::ActiveTier()));
  report.Note("build_type", PERFBENCH_BUILD_TYPE);
  report.Note("setups", static_cast<double>(kSetups));

  const double start = Now();
  if (spec->service) {
    RunService(*spec, inputs, args, &report);
  } else {
    RunSerial(*spec, inputs, args, &report);
  }
  report.Note("run_wall_s", Now() - start);

  std::printf("%s\n", report.ToJson().c_str());
  std::fflush(stdout);
  return report.correct() ? 0 : 1;
}

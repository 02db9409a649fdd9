#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// Monotonic wall clock in seconds.
inline double Now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Linear-interpolation quantile of `samples` (q in [0, 1]); 0 when empty.
double Quantile(std::vector<double> samples, double q);

double Mean(const std::vector<double>& samples);

/// Median of `samples`; 0 when empty.
inline double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

/// \brief Everything one benchmark run reports: provenance, the query
/// counts, the output-check verdict and the metrics, each with its unit
/// and the number of samples behind it.
class Report {
 public:
  struct Metric {
    double value = 0.0;
    std::string unit;
    uint64_t samples = 0;
  };

  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t samples);

  /// Records a failed output check; the first few messages are kept.
  void Fail(const std::string& what);
  /// Fail(what) unless `ok`.
  void Check(bool ok, const std::string& what) {
    if (!ok) Fail(what);
  }
  bool correct() const { return check_failures_ == 0; }

  /// Provenance and run parameters (string or number values).
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);

  uint64_t attempted = 0;
  uint64_t failed = 0;

  /// One JSON object on one line.
  std::string ToJson() const;

 private:
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> notes_;  // name -> JSON value
  std::vector<std::string> failures_;
  uint64_t check_failures_ = 0;
};

/// \brief Fixed CPU work owned by the benchmark — aligned row
/// allocations, a small Householder QR, a sort and binary searches — whose
/// duration
/// tracks how fast this host runs the workloads' kind of code right now.
/// On shared hosts that speed drifts by 20-30% over tens of seconds, so
/// each timing is scaled by kReferenceSeconds over the calibration
/// measured around it. Nothing here calls the library, so a change to the
/// library cannot move the calibration.
class HostCalibration {
 public:
  /// Typical Measure() duration on the 4-core host the bounds in
  /// BENCHMARK.json were set on; scaled timings read as milliseconds at
  /// that speed.
  static constexpr double kReferenceSeconds = 0.0024;

  HostCalibration();

  /// Runs the fixed work `units` times on the calling thread; returns the
  /// mean seconds per unit.
  double Measure(size_t units = 1);

  /// Measure(units) on `threads` threads at once (the calling thread and
  /// threads - 1 helpers, each with its own buffers); returns the mean.
  static double MeasureConcurrently(size_t threads, size_t units);

  /// Multiplies a duration measured at a calibration of `seconds` into
  /// reference-speed time: (kReferenceSeconds / seconds)^sensitivity,
  /// where `sensitivity` is how strongly the timed work responds to host
  /// speed relative to this calibration (WorkloadSpec::host_sensitivity).
  static double Scale(double seconds, double sensitivity) {
    return seconds > 0 ? std::pow(kReferenceSeconds / seconds, sensitivity)
                       : 1.0;
  }

 private:
  static constexpr size_t kRows = 96;
  static constexpr size_t kCols = 6;  // a row fits one 64-byte block
  static constexpr size_t kKeys = 512;
  static constexpr size_t kRepsPerUnit = 40;

  uint64_t Next();

  std::vector<double> matrix_;
  std::vector<double> reflector_;
  std::vector<double*> rows_;
  std::vector<uint64_t> keys_;
  std::vector<uint64_t> sorted_;
  uint64_t state_ = 0x9e3779b97f4a7c15ULL;
  volatile double sink_ = 0.0;
};

/// \brief Start and latency of every timed query of a run, split into
/// consecutive blocks of `block_size` queries (whole rounds over the
/// workload's scopes), each with the host calibration measured during or
/// around it. Timings are scaled to the reference host speed block by
/// block and reported as the median over blocks, so a burst of host
/// slowness moves at most a few blocks and not the reported value. The
/// unscaled values are reported too, under raw.*.
class Timeline {
 public:
  /// `sensitivity` is the exponent HostCalibration::Scale applies.
  Timeline(size_t queries, size_t block_size, double sensitivity);

  size_t blocks() const;
  /// Mean HostCalibration::Measure() seconds over block `block`.
  void Calibrated(size_t block, double seconds);

  void Complete(size_t query, double start, double latency_seconds);
  /// A failed or rejected query misses every latency limit.
  void Fail(size_t query, double start);

  /// Sets query_p50_ms, query_p95_ms, query_p99_ms and throughput_qps.
  /// A block's throughput is its completed queries over the time from its
  /// first query's start to its last completion.
  void Emit(Report* report) const;

 private:
  struct Entry {
    double start = 0.0;
    double latency = 0.0;  // seconds; +inf when failed
    bool done = false;
  };
  std::vector<Entry> entries_;
  size_t block_size_;
  double sensitivity_;
  std::vector<double> calibration_;  // per block
};

/// \brief In-memory span recorder for the traced run. Spans of one query
/// share its id; a span's parent is the span open around it. Spans are
/// written out only when the run ends.
class Tracer {
 public:
  /// Opens a span and returns its index.
  size_t Begin(uint64_t query, const char* name);
  void End(size_t span);

  /// Summed duration (seconds) of every span called `name`.
  double Total(const std::string& name) const;

  /// Writes one JSON line per span (times in microseconds from the first
  /// span's start) to `path`. Returns false when the file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  struct Span {
    uint64_t query = 0;
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int64_t parent = -1;  // index of the enclosing span, -1 for a root
  };

  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span.
class Scoped {
 public:
  Scoped(Tracer* tracer, uint64_t query, const char* name)
      : tracer_(tracer), span_(tracer->Begin(query, name)) {}
  ~Scoped() { tracer_->End(span_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  size_t span_;
};

/// Peak resident set size of this process in MiB (VmHWM), 0 if unknown.
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_

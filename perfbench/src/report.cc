#include "report.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <new>
#include <sstream>
#include <thread>

namespace perfbench {
namespace {

constexpr size_t kKeptFailures = 8;

std::string Escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  out += '"';
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return samples[lo] + frac * (samples[hi] - samples[lo]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double s : samples) sum += s;
  return sum / static_cast<double>(samples.size());
}

void Report::Set(const std::string& name, double value,
                 const std::string& unit, uint64_t samples) {
  Check(std::isfinite(value), "metric " + name + " is not finite");
  metrics_[name] = Metric{value, unit, samples};
}

void Report::Fail(const std::string& what) {
  ++check_failures_;
  if (failures_.size() < kKeptFailures) failures_.push_back(what);
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_[key] = Escape(value);
}

void Report::Note(const std::string& key, double value) {
  notes_[key] = Number(value);
}

std::string Report::ToJson() const {
  std::ostringstream out;
  out << "{\"correct\": " << (correct() ? "true" : "false")
      << ", \"attempted\": " << attempted << ", \"failed\": " << failed
      << ", \"check_failures\": " << check_failures_ << ", \"failures\": [";
  for (size_t i = 0; i < failures_.size(); ++i) {
    out << (i == 0 ? "" : ", ") << Escape(failures_[i]);
  }
  out << "], \"provenance\": {";
  bool first = true;
  for (const auto& [key, value] : notes_) {
    out << (first ? "" : ", ") << Escape(key) << ": " << value;
    first = false;
  }
  out << "}, \"metrics\": {";
  first = true;
  for (const auto& [name, m] : metrics_) {
    out << (first ? "" : ", ") << Escape(name) << ": {\"value\": "
        << Number(m.value) << ", \"unit\": " << Escape(m.unit)
        << ", \"samples\": " << m.samples << "}";
    first = false;
  }
  out << "}}";
  return out.str();
}

HostCalibration::HostCalibration()
    : matrix_(kRows * kCols),
      reflector_(kRows),
      rows_(kRows, nullptr),
      keys_(kKeys),
      sorted_(kKeys) {
  for (uint64_t& key : keys_) key = Next();
}

uint64_t HostCalibration::Next() {
  state_ ^= state_ << 13;
  state_ ^= state_ >> 7;
  state_ ^= state_ << 17;
  return state_;
}

double HostCalibration::Measure(size_t units) {
  units = std::max<size_t>(1, units);
  const double start = Now();
  double checksum = 0.0;
  for (size_t rep = 0; rep < units * kRepsPerUnit; ++rep) {
    // Rows in 64-byte aligned blocks, as the library's Vector allocates
    // them: allocator traffic is a large share of the serving path.
    for (size_t i = 0; i < kRows; ++i) {
      rows_[i] = static_cast<double*>(std::aligned_alloc(64, 64));
      if (rows_[i] == nullptr) throw std::bad_alloc();
      for (size_t k = 0; k < kCols; ++k) {
        rows_[i][k] = static_cast<double>(Next() % 1024) / 1024.0;
        matrix_[i * kCols + k] = rows_[i][k];
      }
    }
    // Householder QR, column by column.
    for (size_t j = 0; j < kCols; ++j) {
      double norm = 0.0;
      for (size_t i = j; i < kRows; ++i) {
        norm += matrix_[i * kCols + j] * matrix_[i * kCols + j];
      }
      norm = std::sqrt(norm);
      const double alpha = matrix_[j * kCols + j] > 0 ? -norm : norm;
      double vnorm = 0.0;
      for (size_t i = j; i < kRows; ++i) {
        reflector_[i] = matrix_[i * kCols + j] - (i == j ? alpha : 0.0);
        vnorm += reflector_[i] * reflector_[i];
      }
      if (vnorm == 0.0) continue;
      for (size_t k = j; k < kCols; ++k) {
        double dot = 0.0;
        for (size_t i = j; i < kRows; ++i) {
          dot += reflector_[i] * matrix_[i * kCols + k];
        }
        dot = 2.0 * dot / vnorm;
        for (size_t i = j; i < kRows; ++i) {
          matrix_[i * kCols + k] -= dot * reflector_[i];
        }
      }
      checksum += alpha;
    }
    for (size_t i = kRows; i-- > 0;) std::free(rows_[i]);
    // Sort and search: branchy, data-dependent memory traffic.
    for (size_t i = 0; i < kKeys; ++i) sorted_[i] = keys_[i] ^ Next();
    std::sort(sorted_.begin(), sorted_.end());
    for (size_t i = 0; i < kKeys; i += 4) {
      checksum += static_cast<double>(
          std::lower_bound(sorted_.begin(), sorted_.end(), keys_[i]) -
          sorted_.begin());
    }
  }
  sink_ = sink_ + checksum;
  return (Now() - start) / static_cast<double>(units);
}

double HostCalibration::MeasureConcurrently(size_t threads, size_t units) {
  std::vector<double> seconds(std::max<size_t>(1, threads), 0.0);
  std::vector<std::thread> helpers;
  for (size_t t = 1; t < seconds.size(); ++t) {
    helpers.emplace_back([&seconds, t, units] {
      HostCalibration calibration;
      seconds[t] = calibration.Measure(units);
    });
  }
  HostCalibration calibration;
  seconds[0] = calibration.Measure(units);
  for (std::thread& helper : helpers) helper.join();
  return Mean(seconds);
}

Timeline::Timeline(size_t queries, size_t block_size, double sensitivity)
    : entries_(queries),
      block_size_(std::max<size_t>(1, block_size)),
      sensitivity_(sensitivity),
      calibration_(blocks(), 0.0) {}

size_t Timeline::blocks() const {
  return (entries_.size() + block_size_ - 1) / block_size_;
}

void Timeline::Calibrated(size_t block, double seconds) {
  calibration_[block] = seconds;
}

void Timeline::Complete(size_t query, double start, double latency_seconds) {
  entries_[query] = Entry{start, latency_seconds, true};
}

void Timeline::Fail(size_t query, double start) {
  entries_[query] = Entry{start, std::numeric_limits<double>::infinity(), true};
}

void Timeline::Emit(Report* report) const {
  std::vector<double> p50, p95, p99, qps;
  std::vector<double> raw_p50, raw_p95, raw_p99, raw_qps, scales;
  uint64_t samples = 0;
  for (size_t b = 0; b < blocks(); ++b) {
    const size_t begin = b * block_size_;
    const size_t end = std::min(entries_.size(), begin + block_size_);
    std::vector<double> latency_ms;
    double first = std::numeric_limits<double>::infinity();
    double last = -std::numeric_limits<double>::infinity();
    double completed = 0.0;
    for (size_t q = begin; q < end; ++q) {
      const Entry& e = entries_[q];
      if (!e.done) continue;
      latency_ms.push_back(e.latency * 1e3);
      first = std::min(first, e.start);
      if (std::isfinite(e.latency)) {
        completed += 1.0;
        last = std::max(last, e.start + e.latency);
      }
    }
    samples += latency_ms.size();
    const double scale = HostCalibration::Scale(calibration_[b], sensitivity_);
    const double wall = last - first;
    raw_p50.push_back(Quantile(latency_ms, 0.50));
    raw_p95.push_back(Quantile(latency_ms, 0.95));
    raw_p99.push_back(Quantile(latency_ms, 0.99));
    raw_qps.push_back(wall > 0 ? completed / wall : 0.0);
    p50.push_back(raw_p50.back() * scale);
    p95.push_back(raw_p95.back() * scale);
    p99.push_back(raw_p99.back() * scale);
    qps.push_back(raw_qps.back() / scale);
    scales.push_back(scale);
  }
  report->Set("query_p50_ms", Median(p50), "ms", samples);
  report->Set("query_p95_ms", Median(p95), "ms", samples);
  report->Set("query_p99_ms", Median(p99), "ms", samples);
  report->Set("throughput_qps", Median(qps), "1/s", samples);
  report->Set("raw.query_p50_ms", Median(raw_p50), "ms", samples);
  report->Set("raw.query_p95_ms", Median(raw_p95), "ms", samples);
  report->Set("raw.query_p99_ms", Median(raw_p99), "ms", samples);
  report->Set("raw.throughput_qps", Median(raw_qps), "1/s", samples);
  report->Set("host.speed_scale", Median(scales), "ratio", scales.size());
  report->Note("blocks", static_cast<double>(blocks()));
}

size_t Tracer::Begin(uint64_t query, const char* name) {
  Span span;
  span.query = query;
  span.name = name;
  span.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
  spans_.push_back(span);
  open_.push_back(spans_.size() - 1);
  spans_.back().start = Now();
  return spans_.size() - 1;
}

void Tracer::End(size_t span) {
  spans_[span].end = Now();
  if (!open_.empty() && open_.back() == span) open_.pop_back();
}

double Tracer::Total(const std::string& name) const {
  double total = 0.0;
  for (const Span& span : spans_) {
    if (name == span.name) total += span.end - span.start;
  }
  return total;
}

bool Tracer::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const double origin = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"query\": " << s.query
        << ", \"name\": " << Escape(s.name)
        << ", \"start_us\": " << Number((s.start - origin) * 1e6)
        << ", \"end_us\": " << Number((s.end - origin) * 1e6)
        << ", \"parent\": " << s.parent << "}\n";
  }
  return static_cast<bool>(out);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kib = 0.0;
      fields >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench

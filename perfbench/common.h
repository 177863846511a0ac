// Shared pieces of the qvbench program: timing, percentiles, the span
// recorder of the traced run, the metric table the run prints, result
// comparison for the correctness oracles, and the run record.
#ifndef QUICKVIEW_PERFBENCH_COMMON_H_
#define QUICKVIEW_PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "engine/view_search_engine.h"

namespace qvbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double SecondsSince(Clock::time_point a) {
  return MsBetween(a, Clock::now()) / 1000.0;
}

/// Aborts the run: prints the reason to stderr and exits 1 without a
/// result line.
[[noreturn]] void Fatal(const std::string& what);

template <typename T>
T Unwrap(quickview::Result<T> result, const std::string& what) {
  if (!result.ok()) Fatal(what + ": " + result.status().ToString());
  return std::move(result).value();
}
void Require(const quickview::Status& status, const std::string& what);

/// A bag of observations with nearest-rank percentiles.
class Samples {
 public:
  void Add(double v) { values_.push_back(v); }
  void Append(const Samples& other);
  size_t size() const { return values_.size(); }
  /// Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;
  double Median() const { return Percentile(50); }
  double Max() const;
  double Sum() const;
  /// True when at least `beyond` samples lie above the p-th percentile,
  /// the condition for reporting that percentile at all.
  bool Supports(double p, size_t beyond = 10) const;

 private:
  mutable std::vector<double> values_;
  mutable bool sorted_ = false;
};

/// Median of a small list of values (setup repetitions).
double MedianOf(std::vector<double> values);

/// How a metric is printed and judged.
struct MetricSpec {
  std::string name;
  std::string unit;
  std::string better;  // "lower" | "higher"
  /// Per-layer metrics: the end-to-end metric and workload the layer
  /// should move, and where it should stay flat.
  std::string moves;
};

/// The measured values of one run, in report order.
class MetricTable {
 public:
  void Set(const std::string& name, double value) { values_[name] = value; }
  double Get(const std::string& name) const;

  /// Prints one "# metric" line per spec (value or n/a) to stdout.
  void Print(const std::vector<MetricSpec>& specs) const;
  /// The JSON "metrics" object over `specs`; every spec must have a value.
  std::string Json(const std::vector<MetricSpec>& specs) const;

 private:
  std::map<std::string, double> values_;
};

/// The 11 end-to-end metrics, and the result line's subset: the ones
/// every workload produces and that repeat well enough between runs to
/// gate on (tail percentiles, commit latency, capacity and space
/// amplification exist on some workloads only, or swing with host noise;
/// they are printed, not gated).
const std::vector<MetricSpec>& EndToEndSpecs();
const std::vector<MetricSpec>& ResultLineEndToEnd();
/// The per-layer metrics of the traced run, with their predictions.
const std::vector<MetricSpec>& PerLayerSpecs();

/// Span recorder for the traced replay. Spans are kept in memory and
/// reduced when the replay ends; a disabled recorder records nothing.
class Tracer {
 public:
  struct Span {
    uint32_t request = 0;
    int32_t parent = -1;  // index into spans_, -1 for a request root
    std::string name;
    Clock::time_point start;
    Clock::time_point end;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Opens a span; returns its handle (-1 when disabled).
  int Begin(const std::string& name, int parent);
  void End(int handle);
  /// Starts a new request root span and returns its handle.
  int BeginRequest(const std::string& name);

  /// Per-name durations (ms) of every span.
  std::map<std::string, Samples> Durations() const;
  /// Per-name self time (ms): a span's duration minus the part of it its
  /// child spans cover.
  std::map<std::string, Samples> SelfTimes() const;
  /// For each request root: |root duration - sum of child durations|
  /// as a share of the root duration.
  Samples StageGaps() const;

 private:
  bool enabled_;
  uint32_t next_request_ = 0;
  std::vector<Span> spans_;
};

/// RAII span on a Tracer.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const std::string& name, int parent)
      : tracer_(tracer), handle_(tracer->Begin(name, parent)) {}
  ~ScopedSpan() { tracer_->End(handle_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
  int handle_;
};

/// Byte-identical comparison of two hit lists (score bits, tf, length,
/// serialized XML). Returns an empty string when equal, else the first
/// difference.
std::string CompareHits(const std::vector<quickview::engine::SearchHit>& got,
                        const std::vector<quickview::engine::SearchHit>& want);

/// Peak resident set size of this process, in MiB.
double PeakRssMb();

/// Filesystem type name of the directory holding `path` ("ext4", ...).
std::string FilesystemType(const std::string& path);

/// Size of a file in bytes (0 when absent).
uint64_t FileBytes(const std::string& path);

/// Key/value pairs printed as "# record key=value" lines.
class RunRecord {
 public:
  void Add(const std::string& key, const std::string& value);
  void Add(const std::string& key, double value);
  void Print() const;

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

}  // namespace qvbench

#endif  // QUICKVIEW_PERFBENCH_COMMON_H_

// MetricsRegistry: the one named-instrument surface for the whole
// process. Subsystems own typed instruments (Counter, Gauge,
// common/histogram.h Histogram) as plain members — recording stays a
// relaxed atomic op on the owner's hot path — and register them here by
// name so every counter in the process renders through a single
// Prometheus-text exposition instead of N hand-rolled stats structs.
//
// Naming convention: `qv_<subsystem>_<name>`, lowercase with
// underscores; counters end in `_total`. Series of one metric name may
// differ by labels (e.g. per-shard buffer pools register
// qv_buffer_hits_total{shard="0"} / {shard="1"}), but must share one
// type: registration enforces both the name grammar and type agreement.
//
// Lifetime contract: the registry stores pointers; every registered
// instrument (and captured callback state) must outlive the registry
// reads. In practice the owner of the registry (Server, CLI) also owns
// or outlives the components it registers.
//
// Exposition: TextExposition() renders the Prometheus text format —
// `# TYPE` line per metric, one sample line per labeled series,
// histograms as cumulative `_bucket{le="..."}` series plus `_sum` and
// `_count` — from a point-in-time HistogramSnapshot per histogram, so a
// render never re-reads live atomics mid-line. ExpositionValue() is the
// matching reader: it pulls one series' value back out of such text, which
// is how Stats RPC clients read the counters they need.
#ifndef QUICKVIEW_OBS_METRICS_H_
#define QUICKVIEW_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "common/status.h"
#include "common/sync.h"

namespace quickview::obs {

/// A monotonically increasing count. Recording is one relaxed
/// fetch_add; safe from any thread.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  void Increment(uint64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// A point-in-time level that can move both ways.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  void Sub(int64_t n) { value_.fetch_sub(n, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Label key/value pairs rendered as {key="value",...}. Keys follow the
/// metric-name grammar; values are escaped on render.
using LabelSet = std::vector<std::pair<std::string, std::string>>;

class MetricsRegistry {
 public:
  enum class InstrumentKind { kCounter, kGauge };

  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Register one series of `name` with `labels`. InvalidArgument on a
  /// malformed name/label key, a duplicate (name, labels) pair, or a
  /// type conflict on `name`. The instrument must outlive every
  /// TextExposition() call.
  Status RegisterCounter(std::string name, LabelSet labels,
                         const Counter* counter);
  Status RegisterGauge(std::string name, LabelSet labels, const Gauge* gauge);
  Status RegisterHistogram(std::string name, LabelSet labels,
                           const Histogram* histogram);
  /// A computed series: `read` is invoked at exposition time (it must be
  /// thread-safe; it may take locks — exposition is off the hot path).
  Status RegisterCallback(std::string name, LabelSet labels,
                          InstrumentKind kind, std::function<int64_t()> read);

  /// Prometheus text format, metrics in first-registration order,
  /// series of one metric in registration order. Deterministic for
  /// deterministic instrument values.
  std::string TextExposition() const;

  /// Number of registered series (all kinds).
  size_t size() const;

 private:
  enum class Kind { kCounter, kGauge, kHistogram, kCallback };
  struct Instrument {
    std::string name;
    LabelSet labels;
    Kind kind = Kind::kCounter;
    InstrumentKind callback_kind = InstrumentKind::kGauge;
    const Counter* counter = nullptr;
    const Gauge* gauge = nullptr;
    const Histogram* histogram = nullptr;
    std::function<int64_t()> read;
  };

  Status Add(Instrument instrument) QV_EXCLUDES(mu_);

  mutable qv::Mutex mu_;
  std::vector<Instrument> instruments_ QV_GUARDED_BY(mu_);
};

/// The value of the sample line whose series is exactly `series` in
/// Prometheus exposition `text` — a bare name (`qv_server_admitted_total`)
/// or a name with its rendered labels
/// (`qv_server_latency_us_count{opcode="Search"}`). A name never matches
/// a longer name or a labeled series of the same name. nullopt when no
/// sample line carries that series or its value is not an integer.
std::optional<int64_t> ExpositionValue(std::string_view text,
                                       std::string_view series);

}  // namespace quickview::obs

#endif  // QUICKVIEW_OBS_METRICS_H_

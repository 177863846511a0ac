#include "common.h"

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/vfs.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

namespace qvbench {

void Fatal(const std::string& what) {
  std::fflush(stdout);
  std::fprintf(stderr, "qvbench: FAILED: %s\n", what.c_str());
  std::exit(1);
}

void Require(const quickview::Status& status, const std::string& what) {
  if (!status.ok()) Fatal(what + ": " + status.ToString());
}

void Samples::Append(const Samples& other) {
  values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  sorted_ = false;
}

double Samples::Percentile(double p) const {
  if (values_.empty()) return 0;
  if (!sorted_) {
    std::sort(values_.begin(), values_.end());
    sorted_ = true;
  }
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values_.size())));
  rank = std::clamp<size_t>(rank, 1, values_.size());
  return values_[rank - 1];
}

double Samples::Max() const {
  return values_.empty() ? 0 : *std::max_element(values_.begin(), values_.end());
}

double Samples::Sum() const {
  return std::accumulate(values_.begin(), values_.end(), 0.0);
}

bool Samples::Supports(double p, size_t beyond) const {
  double n = static_cast<double>(values_.size());
  return n - std::ceil(p / 100.0 * n) >= static_cast<double>(beyond);
}

double MedianOf(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double MetricTable::Get(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) Fatal("metric not measured: " + name);
  return it->second;
}

void MetricTable::Print(const std::vector<MetricSpec>& specs) const {
  for (const MetricSpec& spec : specs) {
    auto it = values_.find(spec.name);
    std::string value = "n/a";
    if (it != values_.end()) {
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.6g", it->second);
      value = buf;
    }
    std::printf("# metric %-38s %12s %-12s %s-is-better%s%s\n",
                spec.name.c_str(), value.c_str(), spec.unit.c_str(),
                spec.better.c_str(), spec.moves.empty() ? "" : "  moves: ",
                spec.moves.c_str());
  }
}

std::string MetricTable::Json(const std::vector<MetricSpec>& specs) const {
  std::string out = "{";
  for (size_t i = 0; i < specs.size(); ++i) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%.10g", Get(specs[i].name));
    if (i > 0) out += ", ";
    out += "\"" + specs[i].name + "\": {\"value\": " + buf + ", \"unit\": \"" +
           specs[i].unit + "\"}";
  }
  return out + "}";
}

const std::vector<MetricSpec>& EndToEndSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"setup_s", "s", "lower", ""},
      {"rss_mb", "MiB", "lower", ""},
      {"query_p50_ms", "ms", "lower", ""},
      {"query_p90_ms", "ms", "lower", ""},
      {"query_p99_ms", "ms", "lower", ""},
      {"query_qps", "1/s", "higher", ""},
      {"capacity_qps", "1/s", "higher", ""},
      {"commit_p50_ms", "ms", "lower", ""},
      {"commit_p99_ms", "ms", "lower", ""},
      {"error_rate", "ratio", "lower", ""},
      {"space_amp", "ratio", "lower", ""},
  };
  return specs;
}

const std::vector<MetricSpec>& ResultLineEndToEnd() {
  static const std::vector<MetricSpec> specs = [] {
    std::vector<MetricSpec> out;
    for (const MetricSpec& spec : EndToEndSpecs()) {
      if (spec.name == "setup_s" || spec.name == "rss_mb" ||
          spec.name == "query_p50_ms" || spec.name == "query_qps") {
        out.push_back(spec);
      }
    }
    return out;
  }();
  return specs;
}

const std::vector<MetricSpec>& PerLayerSpecs() {
  static const std::vector<MetricSpec> specs = {
      {"xml.parse_ms_p50", "ms", "lower",
       "commit_p50_ms on live_ingest_mixed; flat elsewhere"},
      {"qpt.plan_ms_p50", "ms", "lower",
       "query_p50_ms on every workload (small share)"},
      {"pdt.build_ms_p50", "ms", "lower",
       "query_p50_ms/p90/query_qps on cold_inex_paged, query_p99_ms on "
       "live_ingest_mixed; flat on hot_bookrev_serve"},
      {"pdt.build_share", "ratio", "lower", "as pdt.build_ms_p50"},
      {"pdt.ids_processed", "count/query", "lower", "as pdt.build_ms_p50"},
      {"pdt.index_probes", "count/query", "lower", "as pdt.build_ms_p50"},
      {"pdt.nodes_emitted", "count/query", "lower", "as pdt.build_ms_p50"},
      {"pdt.bytes", "bytes/query", "lower", "as pdt.build_ms_p50"},
      {"engine.evaluate_ms_p50", "ms", "lower",
       "query_p50_ms/p99 and capacity_qps on hot_bookrev_serve"},
      {"engine.materialize_ms_p50", "ms", "lower",
       "query_p50_ms/p99 and capacity_qps on hot_bookrev_serve"},
      {"engine.store_fetches", "count/query", "lower",
       "as engine.materialize_ms_p50"},
      {"engine.store_bytes", "bytes/query", "lower",
       "as engine.materialize_ms_p50"},
      {"engine.examined_per_returned", "ratio", "lower",
       "as engine.evaluate_ms_p50"},
      {"service.open_ms_p50", "ms", "lower", "query_p50_ms everywhere"},
      {"service.read_ms_p50", "ms", "lower",
       "query_p50_ms everywhere (open + fetch in process)"},
      {"service.pdt_cache.hit_ratio", "ratio", "higher",
       "~1 on hot_bookrev_serve, ~0 on cold_inex_paged, below 1 on "
       "live_ingest_mixed as writes invalidate"},
      {"service.pdt_cache.evictions", "count", "lower",
       "query_p50_ms on cold_inex_paged"},
      {"index.build_s", "s", "lower", "setup_s"},
      {"pagestore.pack_s", "s", "lower", "setup_s on cold_inex_paged"},
      {"pagestore.open_s", "s", "lower", "setup_s on cold_inex_paged"},
      {"workload.generate_s", "s", "lower", "setup_s"},
      {"pagestore.pool.misses_per_query", "count/query", "lower",
       "query_p50_ms/p90 on cold_inex_paged; zero on hot and live"},
      {"pagestore.pool.hit_ratio", "ratio", "higher",
       "query_p50_ms/p90 on cold_inex_paged; zero on hot and live"},
      {"pagestore.pool.evictions_per_query", "count/query", "lower",
       "query_p50_ms/p90 on cold_inex_paged; zero on hot and live"},
      {"pagestore.wal.append_ms_p50", "ms", "lower",
       "commit_p50_ms on live_ingest_mixed"},
      {"pagestore.wal.append_ms_p99", "ms", "lower",
       "commit_p99_ms on live_ingest_mixed"},
      {"pagestore.wal.fsyncs_per_commit", "count", "lower",
       "commit_p50_ms/p99 on live_ingest_mixed"},
      {"pagestore.wal.group_size_mean", "count", "higher",
       "commit_p50_ms/p99 on live_ingest_mixed"},
      {"pagestore.wal.bytes_per_commit", "bytes", "lower",
       "commit_p50_ms/p99 and space_amp on live_ingest_mixed"},
      {"storage.apply_ms_p50", "ms", "lower",
       "commit_p50_ms, and query_p99_ms via writer-lock waits, on "
       "live_ingest_mixed"},
      {"server.handle_ms_p50.search", "ms", "lower",
       "query_p50_ms and capacity_qps on hot_bookrev_serve"},
      {"server.handle_ms_p50.open_cursor", "ms", "lower",
       "query_p50_ms and capacity_qps on hot_bookrev_serve"},
      {"server.handle_ms_p50.fetch_next", "ms", "lower",
       "query_p50_ms and capacity_qps on hot_bookrev_serve"},
      {"server.handle_ms_p50.close_cursor", "ms", "lower",
       "query_p50_ms on hot_bookrev_serve"},
      {"server.handle_ms_p50.insert", "ms", "lower",
       "commit_p50_ms on live_ingest_mixed"},
      {"server.handle_ms_p50.remove", "ms", "lower",
       "commit_p50_ms on live_ingest_mixed"},
      {"server.overhead_ms_p50", "ms", "lower",
       "query_p50_ms and capacity_qps on hot_bookrev_serve; negligible on "
       "cold_inex_paged"},
      {"server.shed_total", "count", "lower", "error_rate"},
      {"loadgen.late_ms_p99", "ms", "lower", "validity check only"},
      {"loadgen.late_ms_max", "ms", "lower", "validity check only"},
      {"trace.overhead_ratio", "ratio", "lower", "validity check only"},
      {"trace.stage_gap_max", "ratio", "lower",
       "validity check: stage spans vs request wall time"},
      {"trace.unattributed_share", "ratio", "lower",
       "validity check: request self time / request time"},
  };
  return specs;
}

int Tracer::Begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  Span span;
  span.request = parent >= 0 ? spans_[parent].request : next_request_++;
  span.parent = parent;
  span.name = name;
  span.start = Clock::now();
  span.end = span.start;
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size() - 1);
}

int Tracer::BeginRequest(const std::string& name) { return Begin(name, -1); }

void Tracer::End(int handle) {
  if (handle >= 0) spans_[handle].end = Clock::now();
}

std::map<std::string, Samples> Tracer::Durations() const {
  std::map<std::string, Samples> out;
  for (const Span& span : spans_) {
    out[span.name].Add(MsBetween(span.start, span.end));
  }
  return out;
}

namespace {

/// Length (ms) of the union of [start, end) intervals.
double CoveredMs(std::vector<std::pair<Clock::time_point, Clock::time_point>>
                     intervals) {
  std::sort(intervals.begin(), intervals.end());
  double total = 0;
  Clock::time_point cur_start{}, cur_end{};
  bool open = false;
  for (const auto& [start, end] : intervals) {
    if (!open || start > cur_end) {
      if (open) total += MsBetween(cur_start, cur_end);
      cur_start = start;
      cur_end = end;
      open = true;
    } else if (end > cur_end) {
      cur_end = end;
    }
  }
  if (open) total += MsBetween(cur_start, cur_end);
  return total;
}

std::vector<std::vector<int>> Children(const std::vector<Tracer::Span>& spans) {
  std::vector<std::vector<int>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[spans[i].parent].push_back(static_cast<int>(i));
    }
  }
  return children;
}

}  // namespace

std::map<std::string, Samples> Tracer::SelfTimes() const {
  std::vector<std::vector<int>> children = Children(spans_);
  std::map<std::string, Samples> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    std::vector<std::pair<Clock::time_point, Clock::time_point>> cover;
    for (int c : children[i]) {
      // Clip each child to its parent's interval.
      cover.emplace_back(std::max(spans_[c].start, spans_[i].start),
                         std::min(spans_[c].end, spans_[i].end));
    }
    double self = MsBetween(spans_[i].start, spans_[i].end) - CoveredMs(cover);
    out[spans_[i].name].Add(std::max(0.0, self));
  }
  return out;
}

Samples Tracer::StageGaps() const {
  std::vector<std::vector<int>> children = Children(spans_);
  Samples gaps;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) continue;
    double wall = MsBetween(spans_[i].start, spans_[i].end);
    double stages = 0;
    for (int c : children[i]) {
      stages += MsBetween(spans_[c].start, spans_[c].end);
    }
    gaps.Add(wall > 0 ? std::fabs(wall - stages) / wall : 0);
  }
  return gaps;
}

std::string CompareHits(const std::vector<quickview::engine::SearchHit>& got,
                        const std::vector<quickview::engine::SearchHit>& want) {
  if (got.size() != want.size()) {
    return "hit count " + std::to_string(got.size()) + " != " +
           std::to_string(want.size());
  }
  for (size_t i = 0; i < got.size(); ++i) {
    const auto& a = got[i];
    const auto& b = want[i];
    if (std::memcmp(&a.score, &b.score, sizeof(double)) != 0) {
      return "hit " + std::to_string(i) + " score differs";
    }
    if (a.tf != b.tf) return "hit " + std::to_string(i) + " tf differs";
    if (a.byte_length != b.byte_length || a.xml != b.xml) {
      return "hit " + std::to_string(i) + " xml differs";
    }
  }
  return "";
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::string FilesystemType(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) return "unknown";
  switch (static_cast<unsigned long>(fs.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x01021994:
      return "tmpfs";
    case 0x794C7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(fs.f_type));
      return buf;
    }
  }
}

uint64_t FileBytes(const std::string& path) {
  struct stat st;
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

void RunRecord::Add(const std::string& key, const std::string& value) {
  entries_.emplace_back(key, value);
}

void RunRecord::Add(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  entries_.emplace_back(key, buf);
}

void RunRecord::Print() const {
  for (const auto& [key, value] : entries_) {
    std::printf("# record %s=%s\n", key.c_str(), value.c_str());
  }
}

}  // namespace qvbench

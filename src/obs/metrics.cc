#include "obs/metrics.h"

#include <algorithm>
#include <charconv>
#include <utility>

namespace quickview::obs {
namespace {

/// Prometheus metric-name / label-key grammar, restricted to the
/// project's lowercase convention: [a-z_][a-z0-9_]*.
bool ValidName(std::string_view name) {
  if (name.empty()) return false;
  for (size_t i = 0; i < name.size(); ++i) {
    const char c = name[i];
    const bool alpha = (c >= 'a' && c <= 'z') || c == '_';
    const bool digit = c >= '0' && c <= '9';
    if (!(alpha || (digit && i > 0))) return false;
  }
  return true;
}

/// Label values escape backslash, double quote and newline per the
/// Prometheus text-format spec.
void AppendEscaped(std::string* out, std::string_view value) {
  for (char c : value) {
    switch (c) {
      case '\\':
        out->append("\\\\");
        break;
      case '"':
        out->append("\\\"");
        break;
      case '\n':
        out->append("\\n");
        break;
      default:
        out->push_back(c);
    }
  }
}

void AppendLabels(std::string* out, const LabelSet& labels,
                  std::string_view extra_key = {},
                  std::string_view extra_value = {}) {
  if (labels.empty() && extra_key.empty()) return;
  out->push_back('{');
  bool first = true;
  for (const auto& [key, value] : labels) {
    if (!first) out->push_back(',');
    first = false;
    out->append(key);
    out->append("=\"");
    AppendEscaped(out, value);
    out->push_back('"');
  }
  if (!extra_key.empty()) {
    if (!first) out->push_back(',');
    out->append(extra_key);
    out->append("=\"");
    AppendEscaped(out, extra_value);
    out->push_back('"');
  }
  out->push_back('}');
}

}  // namespace

Status MetricsRegistry::RegisterCounter(std::string name, LabelSet labels,
                                        const Counter* counter) {
  Instrument inst;
  inst.name = std::move(name);
  inst.labels = std::move(labels);
  inst.kind = Kind::kCounter;
  inst.counter = counter;
  return Add(std::move(inst));
}

Status MetricsRegistry::RegisterGauge(std::string name, LabelSet labels,
                                      const Gauge* gauge) {
  Instrument inst;
  inst.name = std::move(name);
  inst.labels = std::move(labels);
  inst.kind = Kind::kGauge;
  inst.gauge = gauge;
  return Add(std::move(inst));
}

Status MetricsRegistry::RegisterHistogram(std::string name, LabelSet labels,
                                          const Histogram* histogram) {
  Instrument inst;
  inst.name = std::move(name);
  inst.labels = std::move(labels);
  inst.kind = Kind::kHistogram;
  inst.histogram = histogram;
  return Add(std::move(inst));
}

Status MetricsRegistry::RegisterCallback(std::string name, LabelSet labels,
                                         InstrumentKind kind,
                                         std::function<int64_t()> read) {
  Instrument inst;
  inst.name = std::move(name);
  inst.labels = std::move(labels);
  inst.kind = Kind::kCallback;
  inst.callback_kind = kind;
  inst.read = std::move(read);
  return Add(std::move(inst));
}

Status MetricsRegistry::Add(Instrument instrument) {
  if (!ValidName(instrument.name)) {
    return Status::InvalidArgument("bad metric name: " + instrument.name);
  }
  for (const auto& [key, value] : instrument.labels) {
    if (!ValidName(key) || key == "le") {
      return Status::InvalidArgument("bad label key on " + instrument.name +
                                     ": " + key);
    }
  }
  const bool has_target =
      instrument.counter != nullptr || instrument.gauge != nullptr ||
      instrument.histogram != nullptr || instrument.read != nullptr;
  if (!has_target) {
    return Status::InvalidArgument("null instrument for " + instrument.name);
  }
  // Prometheus renders counters as `<name>` too, but samples of one name
  // must all be the same type; a callback's exposition type is its
  // declared InstrumentKind.
  auto exposition_kind = [](const Instrument& inst) {
    if (inst.kind == Kind::kCallback) {
      return inst.callback_kind == InstrumentKind::kCounter ? Kind::kCounter
                                                            : Kind::kGauge;
    }
    return inst.kind;
  };
  qv::MutexLock lock(mu_);
  for (const Instrument& existing : instruments_) {
    if (existing.name != instrument.name) continue;
    if (exposition_kind(existing) != exposition_kind(instrument)) {
      return Status::InvalidArgument("metric " + instrument.name +
                                     " registered with a different type");
    }
    if (existing.labels == instrument.labels) {
      return Status::InvalidArgument("duplicate series for metric " +
                                     instrument.name);
    }
  }
  instruments_.push_back(std::move(instrument));
  return Status::OK();
}

size_t MetricsRegistry::size() const {
  qv::MutexLock lock(mu_);
  return instruments_.size();
}

std::string MetricsRegistry::TextExposition() const {
  qv::MutexLock lock(mu_);
  std::string out;
  // Metrics render in first-registration order; all series of one name
  // render under a single # TYPE header (the format requires grouping).
  std::vector<size_t> order;
  order.reserve(instruments_.size());
  std::vector<bool> rendered(instruments_.size(), false);
  for (size_t i = 0; i < instruments_.size(); ++i) {
    if (rendered[i]) continue;
    const std::string& name = instruments_[i].name;
    const char* type = "gauge";
    switch (instruments_[i].kind) {
      case Kind::kCounter:
        type = "counter";
        break;
      case Kind::kGauge:
        type = "gauge";
        break;
      case Kind::kHistogram:
        type = "histogram";
        break;
      case Kind::kCallback:
        type = instruments_[i].callback_kind == InstrumentKind::kCounter
                   ? "counter"
                   : "gauge";
        break;
    }
    out.append("# TYPE ");
    out.append(name);
    out.push_back(' ');
    out.append(type);
    out.push_back('\n');
    for (size_t j = i; j < instruments_.size(); ++j) {
      if (rendered[j] || instruments_[j].name != name) continue;
      rendered[j] = true;
      const Instrument& inst = instruments_[j];
      switch (inst.kind) {
        case Kind::kCounter:
          out.append(name);
          AppendLabels(&out, inst.labels);
          out.push_back(' ');
          out.append(std::to_string(inst.counter->value()));
          out.push_back('\n');
          break;
        case Kind::kGauge:
          out.append(name);
          AppendLabels(&out, inst.labels);
          out.push_back(' ');
          out.append(std::to_string(inst.gauge->value()));
          out.push_back('\n');
          break;
        case Kind::kCallback:
          out.append(name);
          AppendLabels(&out, inst.labels);
          out.push_back(' ');
          out.append(std::to_string(inst.read()));
          out.push_back('\n');
          break;
        case Kind::kHistogram: {
          // Cumulative le-bound buckets from one point-in-time snapshot.
          // Each captured bucket holds values in [lower, upper], so the
          // running total through it is exactly the count of
          // observations <= upper.
          const HistogramSnapshot snap = inst.histogram->Snapshot();
          uint64_t cumulative = 0;
          for (const HistogramSnapshot::Bucket& b : snap.buckets) {
            cumulative += b.count;
            out.append(name);
            out.append("_bucket");
            AppendLabels(&out, inst.labels, "le", std::to_string(b.upper));
            out.push_back(' ');
            out.append(std::to_string(cumulative));
            out.push_back('\n');
          }
          out.append(name);
          out.append("_bucket");
          AppendLabels(&out, inst.labels, "le", "+Inf");
          out.push_back(' ');
          out.append(std::to_string(snap.count));
          out.push_back('\n');
          out.append(name);
          out.append("_sum");
          AppendLabels(&out, inst.labels);
          out.push_back(' ');
          out.append(std::to_string(snap.sum));
          out.push_back('\n');
          out.append(name);
          out.append("_count");
          AppendLabels(&out, inst.labels);
          out.push_back(' ');
          out.append(std::to_string(snap.count));
          out.push_back('\n');
          break;
        }
      }
    }
  }
  return out;
}

std::optional<int64_t> ExpositionValue(std::string_view text,
                                       std::string_view series) {
  while (!text.empty()) {
    const size_t eol = text.find('\n');
    std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol == std::string_view::npos ? text.size() : eol + 1);
    if (line.size() <= series.size() || !line.starts_with(series) ||
        line[series.size()] != ' ') {
      continue;
    }
    const std::string_view value = line.substr(series.size() + 1);
    int64_t parsed = 0;
    const auto [end, ec] =
        std::from_chars(value.data(), value.data() + value.size(), parsed);
    if (ec != std::errc() || end != value.data() + value.size()) {
      return std::nullopt;
    }
    return parsed;
  }
  return std::nullopt;
}

}  // namespace quickview::obs

#include "obs/slow_query_log.h"

#include <algorithm>
#include <string_view>
#include <utility>

namespace quickview::obs {

void SlowQueryLog::Record(Entry entry) {
  qv::MutexLock lock(mu_);
  ++considered_;
  if (options_.capacity == 0) return;
  if (entry.latency_us < options_.threshold_us) return;
  if (entries_.size() < options_.capacity) {
    entries_.push_back(std::move(entry));
    return;
  }
  // At capacity: replace the least-slow kept entry if this one is worse.
  auto weakest = std::min_element(
      entries_.begin(), entries_.end(), [](const Entry& a, const Entry& b) {
        return a.latency_us < b.latency_us;
      });
  if (entry.latency_us > weakest->latency_us) *weakest = std::move(entry);
}

std::vector<SlowQueryLog::Entry> SlowQueryLog::Snapshot() const {
  std::vector<Entry> out;
  {
    qv::MutexLock lock(mu_);
    out = entries_;
  }
  std::sort(out.begin(), out.end(), [](const Entry& a, const Entry& b) {
    if (a.latency_us != b.latency_us) return a.latency_us > b.latency_us;
    return a.request_id < b.request_id;
  });
  return out;
}

std::string SlowQueryLog::TextExposition() const {
  std::string out;
  for (const Entry& entry : Snapshot()) {
    out += "# slow_query latency_us=" + std::to_string(entry.latency_us) +
           " request_id=" + std::to_string(entry.request_id) +
           " opcode=" + entry.opcode + ' ';
    // A newline in the description would end the comment line early.
    for (char c : entry.description) {
      if (c == '\n') {
        out += "\\n";
      } else {
        out.push_back(c);
      }
    }
    out.push_back('\n');
    std::string_view trace = entry.trace;
    while (!trace.empty()) {
      const size_t eol = trace.find('\n');
      out += "#   ";
      out += trace.substr(0, eol);
      out.push_back('\n');
      trace.remove_prefix(eol == std::string_view::npos ? trace.size()
                                                        : eol + 1);
    }
  }
  return out;
}

uint64_t SlowQueryLog::considered() const {
  qv::MutexLock lock(mu_);
  return considered_;
}

}  // namespace quickview::obs

// SlowQueryLog: a bounded record of the K worst requests by latency.
// Every completed RPC at or above the threshold is offered; the log
// keeps the `capacity` slowest, so a burst of pathological queries can
// never wash out the single worst offender (the failure mode of a plain
// time-ordered ring). Entries carry the request's serialized span tree
// when it was traced, making "why was this slow" answerable after the
// fact. TextExposition() renders the log as Prometheus comment lines, so
// the Stats RPC and the server's shutdown report append it to the
// metrics exposition and the whole reply stays valid exposition text.
#ifndef QUICKVIEW_OBS_SLOW_QUERY_LOG_H_
#define QUICKVIEW_OBS_SLOW_QUERY_LOG_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/sync.h"

namespace quickview::obs {

class SlowQueryLog {
 public:
  struct Options {
    /// Requests faster than this are never recorded. 0 = consider all.
    uint64_t threshold_us = 0;
    /// Worst-K capacity; 0 disables the log entirely.
    size_t capacity = 8;
  };

  struct Entry {
    uint64_t latency_us = 0;
    uint64_t request_id = 0;
    /// Opcode name of the request ("Search"); empty for non-RPC sources.
    std::string opcode;
    /// Human-readable request summary ("search view=V keywords=a,b").
    std::string description;
    /// Serialized span tree; empty when the request was not traced.
    std::string trace;
  };

  explicit SlowQueryLog(Options options) : options_(options) {}
  SlowQueryLog(const SlowQueryLog&) = delete;
  SlowQueryLog& operator=(const SlowQueryLog&) = delete;

  /// Offers one finished request. Kept iff it clears the threshold and
  /// is among the `capacity` worst seen so far.
  void Record(Entry entry) QV_EXCLUDES(mu_);

  /// Entries ordered worst-first (ties broken by request id for a
  /// deterministic report).
  std::vector<Entry> Snapshot() const QV_EXCLUDES(mu_);

  /// The log as Prometheus comment lines, worst entry first: one
  ///   `# slow_query latency_us=N request_id=N opcode=Name <description>`
  /// line per entry, then each line of its trace prefixed with `#   `.
  /// Empty when the log holds no entry.
  std::string TextExposition() const QV_EXCLUDES(mu_);

  /// Requests offered to Record (before threshold/capacity filtering).
  uint64_t considered() const QV_EXCLUDES(mu_);

  const Options& options() const { return options_; }

 private:
  const Options options_;
  mutable qv::Mutex mu_;
  std::vector<Entry> entries_ QV_GUARDED_BY(mu_);
  uint64_t considered_ QV_GUARDED_BY(mu_) = 0;
};

}  // namespace quickview::obs

#endif  // QUICKVIEW_OBS_SLOW_QUERY_LOG_H_

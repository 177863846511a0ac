// The three benchmark workloads. Each builds its inputs from the seed,
// serves them over a loopback server::Server, and either measures the
// end-to-end metrics (trace off) or replays the same request streams in
// process with a span around every layer call (trace on).
#ifndef QUICKVIEW_PERFBENCH_WORKLOADS_H_
#define QUICKVIEW_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace qvbench {

struct RunOptions {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory for the pack file and the logs; created and
  /// emptied by the caller.
  std::string workdir;
};

struct RunOutcome {
  MetricTable metrics;
  RunRecord record;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// Oracle and state-check failures; any entry fails the run.
  std::vector<std::string> errors;
};

/// Names of the workloads, in report order.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. Fatal setup errors exit the process.
RunOutcome RunWorkload(const RunOptions& options);

}  // namespace qvbench

#endif  // QUICKVIEW_PERFBENCH_WORKLOADS_H_

// qvbench: the quickview benchmark program. One run measures one workload
// built from a seed:
//
//   qvbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//           [--workdir <dir>]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
// metrics of the traced in-process replay. Every metric is printed as a
// "# metric" line with its unit and direction; the last line of stdout
// is one JSON object {"correct", "attempted", "failed", "metrics"}. Any
// wrong answer, failed state check or failed request exits with code 1.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>

#include "common.h"
#include "workloads.h"

namespace {

void Usage() {
  std::fprintf(stderr,
               "usage: qvbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--workdir <dir>]\nworkloads:");
  for (const std::string& name : qvbench::WorkloadNames()) {
    std::fprintf(stderr, " %s", name.c_str());
  }
  std::fprintf(stderr, "\n");
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  qvbench::RunOptions options;
  std::string workdir = ".bench_build/qvbench-work";
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) Usage();
    const std::string value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value.c_str(), nullptr);
    } else if (arg == "--trace") {
      options.trace = value == "1";
    } else if (arg == "--workdir") {
      workdir = value;
    } else {
      Usage();
    }
  }
  if (!have_workload || options.seconds <= 0) Usage();

  // A private scratch directory per process, removed at the end.
  namespace fs = std::filesystem;
  options.workdir = workdir + "/run-" + std::to_string(getpid());
  std::error_code ec;
  fs::remove_all(options.workdir, ec);
  fs::create_directories(options.workdir, ec);
  if (ec) qvbench::Fatal("cannot create " + options.workdir);

  qvbench::RunOutcome outcome = qvbench::RunWorkload(options);
  fs::remove_all(options.workdir, ec);

  qvbench::RunRecord header;
  header.Add("workload", options.workload);
  header.Add("seed", std::to_string(options.seed));
  header.Add("seconds", options.seconds);
  header.Add("trace", options.trace ? "1" : "0");
  header.Add("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  header.Add("compiler", QVBENCH_COMPILER);
  header.Add("build_type", QVBENCH_BUILD_TYPE);
  const char* source = std::getenv("QVBENCH_SOURCE");
  header.Add("source", source != nullptr ? source : "unknown");
  header.Print();
  outcome.record.Print();

  const auto& specs = options.trace ? qvbench::PerLayerSpecs()
                                    : qvbench::ResultLineEndToEnd();
  if (options.trace) {
    outcome.metrics.Print(qvbench::PerLayerSpecs());
  } else {
    outcome.metrics.Print(qvbench::EndToEndSpecs());
  }
  for (const std::string& error : outcome.errors) {
    std::fprintf(stderr, "qvbench: %s\n", error.c_str());
  }
  const bool correct = outcome.errors.empty() && outcome.failed == 0;
  if (!correct) {
    std::printf("{\"correct\": false, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {}}\n",
                static_cast<unsigned long long>(outcome.attempted),
                static_cast<unsigned long long>(outcome.failed));
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed),
              outcome.metrics.Json(specs).c_str());
  return 0;
}

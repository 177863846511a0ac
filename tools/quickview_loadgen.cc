// quickview load generator: closed-loop multi-connection client for a
// running quickview_server.
//
//   quickview_loadgen --port P [--host H] [--connections N] [--requests N]
//       [--qps N] [--paged-every N] [--page N] [--deadline-ms N] [--top N]
//       [--any] [--view NAME] [--keywords k1,k2[;k3,k4;...]] [--trace]
//
// Prints throughput, the latency percentile ladder, and the typed error
// split, then issues one final Stats RPC so smoke tests can assert on
// server-side counters without a second tool. --trace follows up with
// one traced Search per keyword set and prints the server's span-tree
// breakdown (plan / build_pdts / evaluate per shard, merge,
// materialize) flame-style.
#include <cstdio>
#include <iterator>
#include <optional>
#include <string>
#include <vector>

#include "common/strings.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/load_driver.h"
#include "server/protocol.h"
#include "tool_common.h"

namespace {

using namespace quickview;
using tools::Fail;
using tools::ParseCount;

int Usage() {
  std::fprintf(
      stderr,
      "usage: quickview_loadgen --port P [--host H] [--connections N]\n"
      "    [--requests N] [--qps N] [--paged-every N] [--page N]\n"
      "    [--deadline-ms N] [--top N] [--any] [--view NAME]\n"
      "    [--keywords k1,k2[;k3,k4;...]] [--trace]\n");
  return 2;
}

bool ParseFlags(int argc, char** argv, server::LoadOptions* options,
                bool* trace) {
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    long long value = 0;
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      options->host = v;
    } else if (arg == "--port") {
      if (!ParseCount(next(), 65535, &value) || value == 0) return false;
      options->port = static_cast<uint16_t>(value);
      have_port = true;
    } else if (arg == "--connections") {
      if (!ParseCount(next(), 4096, &value) || value == 0) return false;
      options->connections = static_cast<int>(value);
    } else if (arg == "--requests") {
      if (!ParseCount(next(), 1 << 24, &value) || value == 0) return false;
      options->requests_per_connection = static_cast<int>(value);
    } else if (arg == "--qps") {
      if (!ParseCount(next(), 1 << 24, &value)) return false;
      options->target_qps = static_cast<double>(value);
    } else if (arg == "--paged-every") {
      if (!ParseCount(next(), 1 << 24, &value)) return false;
      options->paged_every = static_cast<int>(value);
    } else if (arg == "--page") {
      if (!ParseCount(next(), 1 << 20, &value) || value == 0) return false;
      options->page_size = static_cast<uint32_t>(value);
    } else if (arg == "--deadline-ms") {
      if (!ParseCount(next(), 1 << 30, &value)) return false;
      options->deadline_ms = static_cast<uint64_t>(value);
    } else if (arg == "--top") {
      if (!ParseCount(next(), 1 << 20, &value) || value == 0) return false;
      options->top_k = static_cast<uint32_t>(value);
    } else if (arg == "--trace") {
      *trace = true;
    } else if (arg == "--any") {
      options->conjunctive = false;
    } else if (arg == "--all") {
      options->conjunctive = true;
    } else if (arg == "--view") {
      const char* v = next();
      if (v == nullptr) return false;
      options->view = v;
    } else if (arg == "--keywords") {
      // Semicolon-separated keyword sets, comma-separated keywords.
      const char* v = next();
      if (v == nullptr) return false;
      for (std::string_view set : SplitString(v, ';')) {
        std::vector<std::string> keywords;
        for (std::string_view piece : SplitString(set, ',')) {
          if (!piece.empty()) keywords.push_back(AsciiToLower(piece));
        }
        if (!keywords.empty()) {
          options->keyword_sets.push_back(std::move(keywords));
        }
      }
    } else {
      return false;
    }
  }
  return have_port;
}

}  // namespace

int main(int argc, char** argv) {
  server::LoadOptions options;
  bool trace = false;
  if (!ParseFlags(argc, argv, &options, &trace)) return Usage();

  auto report = server::RunLoadDriver(options);
  if (!report.ok()) return Fail(report.status());

  std::printf(
      "loadgen: %llu requests over %d connections in %.1f ms (%.0f q/s)\n",
      static_cast<unsigned long long>(report->attempted), options.connections,
      report->wall_ms, report->achieved_qps);
  std::printf(
      "  ok %llu, shed %llu, deadline %llu, other %llu, transport %llu; "
      "%llu hits\n",
      static_cast<unsigned long long>(report->ok),
      static_cast<unsigned long long>(report->shed),
      static_cast<unsigned long long>(report->deadline_exceeded),
      static_cast<unsigned long long>(report->other_errors),
      static_cast<unsigned long long>(report->transport_errors),
      static_cast<unsigned long long>(report->hits_fetched));
  std::printf(
      "  latency p50 %lluus  p90 %lluus  p99 %lluus  max-bucket %lluus\n",
      static_cast<unsigned long long>(report->latency->ValueAtQuantile(0.50)),
      static_cast<unsigned long long>(report->latency->ValueAtQuantile(0.90)),
      static_cast<unsigned long long>(report->latency->ValueAtQuantile(0.99)),
      static_cast<unsigned long long>(report->latency->ValueAtQuantile(1.0)));

  // Server-side picture, for the smoke test's assertions.
  server::Client client;
  Status connected = client.Connect(options.host, options.port);
  if (!connected.ok()) return Fail(connected);
  auto stats = client.Stats();
  if (!stats.ok()) return Fail(stats.status());
  const char* const kSeries[] = {
      "qv_server_admitted_total",          "qv_server_shed_total",
      "qv_server_deadline_rejected_total", "qv_server_open_cursors",
      "qv_server_protocol_errors_total",   "qv_service_queries_total"};
  long long values[std::size(kSeries)] = {};
  for (size_t i = 0; i < std::size(kSeries); ++i) {
    std::optional<int64_t> value = obs::ExpositionValue(*stats, kSeries[i]);
    if (!value) {
      return Fail(Status::Internal(std::string("server stats lack ") +
                                   kSeries[i]));
    }
    values[i] = static_cast<long long>(*value);
  }
  std::printf(
      "server stats: admitted %lld shed %lld deadline-rejected %lld "
      "open-cursors %lld protocol-errors %lld queries %lld\n",
      values[0], values[1], values[2], values[3], values[4], values[5]);

  if (trace) {
    // One traced request per keyword set: the server's span tree is the
    // flame-style "where did the time go" answer for this workload.
    std::vector<std::vector<std::string>> sets = options.keyword_sets;
    if (sets.empty()) sets.push_back({"xml", "search"});
    for (const std::vector<std::string>& keywords : sets) {
      server::SearchRpcRequest request;
      request.view = options.view;
      request.keywords = keywords;
      request.top_k = options.top_k;
      request.conjunctive = options.conjunctive;
      std::string span_tree;
      auto traced = client.Search(request, &span_tree);
      if (!traced.ok()) return Fail(traced.status());
      std::string label;
      for (const std::string& keyword : keywords) {
        if (!label.empty()) label += ',';
        label += keyword;
      }
      std::printf("trace breakdown [%s]:\n%s", label.c_str(),
                  span_tree.c_str());
    }
  }
  return 0;
}

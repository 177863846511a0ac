// quickview network server: the framed binary protocol of
// server/protocol.h over TCP, fronting a QueryService.
//
//   quickview_server [<db-dir>|<db.qvpack>|<db.qvset>] [--demo]
//       [--host H] [--port P] [--port-file F]
//       [--threads N] [--workers N] [--admission-limit N] [--max-conns N]
//       [--frames N] [--shards N] [--colocate tag] [--live] [--wal <path>]
//       [--view <file>] [--trace-all] [--slow-threshold-us N] [--slow-log N]
//
// With no source (or --demo) it serves the built-in books/reviews
// corpus. --live wraps an in-memory corpus in a LiveDatabase so Insert/
// Remove RPCs mutate it; the static backends answer those with
// InvalidArgument. The view registered under the name "default" is the
// built-in books/reviews view unless --view names a file. The source
// flags mean what they mean in quickview_cli (service/backend.h), and
// contradictory ones — --demo with a source, --shards or --live over a
// packed source, --live with --shards — fail at startup.
//
// --wal <path> (requires --live) makes mutations durable: committed
// records in an existing log at <path> are replayed over the base corpus
// at startup (a torn tail is truncated), and every Insert/Remove RPC is
// group-committed (fdatasync) to the log before it is acknowledged, so
// a crash or restart never loses an acked mutation.
//
// --port 0 (the default) binds an ephemeral port; --port-file writes
// "<port>\n" once listening, which is how the smoke test and local
// scripts find the server. SIGINT/SIGTERM shut down cleanly: stop
// accepting, close connections, drain workers, then print final stats
// (per-opcode latency/shed/deadline table) and the same text the Stats
// RPC serves: the Prometheus exposition of the metrics registry followed
// by the slow-query log as comment lines.
//
// --trace-all traces every request server-side so slow-query-log
// entries carry span trees; --slow-threshold-us / --slow-log tune what
// the log considers and how many worst requests it keeps.
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "server/server.h"
#include "service/backend.h"
#include "service/query_service.h"
#include "tool_common.h"

namespace {

using namespace quickview;
using tools::Fail;
using tools::ParseCount;

int Usage() {
  std::fprintf(
      stderr,
      "usage: quickview_server [<db-dir>|<db.qvpack>|<db.qvset>] [--demo]\n"
      "    [--host H] [--port P] [--port-file F] [--threads N] [--workers N]\n"
      "    [--admission-limit N] [--max-conns N] [--frames N] [--shards N]\n"
      "    [--colocate tag] [--live] [--wal <path>] [--view <file>] "
      "[--trace-all]\n"
      "    [--slow-threshold-us N] [--slow-log N]\n");
  return 2;
}

struct Flags {
  std::vector<std::string> positional;
  service::BackendSpec corpus;  // source flags; positional[0] is the source
  std::string host = "127.0.0.1";
  long long port = 0;
  std::string port_file;
  std::string view;
  int threads = 0;  // QueryService pool; 0 = hardware concurrency
  int workers = 0;  // server RPC pool; 0 = hardware concurrency
  long long admission_limit = 128;
  long long max_conns = 64;
  bool trace_all = false;
  long long slow_threshold_us = 0;
  long long slow_log = 8;
};

bool ParseFlags(int argc, char** argv, Flags* flags) {
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return ++i < argc ? argv[i] : nullptr;
    };
    if (arg == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->host = v;
    } else if (arg == "--port") {
      if (!ParseCount(next(), 65535, &flags->port)) return false;
    } else if (arg == "--port-file") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->port_file = v;
    } else if (arg == "--view") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->view = v;
    } else if (arg == "--demo") {
      flags->corpus.demo = true;
    } else if (arg == "--live") {
      flags->corpus.live = true;
    } else if (arg == "--wal") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->corpus.wal = v;
    } else if (arg == "--threads") {
      long long value = 0;
      if (!ParseCount(next(), 4096, &value)) return false;
      flags->threads = static_cast<int>(value);
    } else if (arg == "--workers") {
      long long value = 0;
      if (!ParseCount(next(), 4096, &value)) return false;
      flags->workers = static_cast<int>(value);
    } else if (arg == "--admission-limit") {
      if (!ParseCount(next(), 1 << 20, &flags->admission_limit) ||
          flags->admission_limit == 0) {
        return false;
      }
    } else if (arg == "--max-conns") {
      if (!ParseCount(next(), 1 << 20, &flags->max_conns) ||
          flags->max_conns == 0) {
        return false;
      }
    } else if (arg == "--frames") {
      long long value = 0;
      if (!ParseCount(next(), 1 << 24, &value) || value == 0) return false;
      flags->corpus.frames = static_cast<size_t>(value);
    } else if (arg == "--shards") {
      long long value = 0;
      if (!ParseCount(next(), 4096, &value) || value == 0) return false;
      flags->corpus.shards = static_cast<int>(value);
    } else if (arg == "--colocate") {
      const char* v = next();
      if (v == nullptr) return false;
      flags->corpus.colocate = v;
    } else if (arg == "--trace-all") {
      flags->trace_all = true;
    } else if (arg == "--slow-threshold-us") {
      if (!ParseCount(next(), 1LL << 40, &flags->slow_threshold_us)) {
        return false;
      }
    } else if (arg == "--slow-log") {
      if (!ParseCount(next(), 1 << 20, &flags->slow_log)) return false;
    } else {
      flags->positional.push_back(std::move(arg));
    }
  }
  return true;
}

void PrintFinalStats(const server::ServerSnapshot& stats,
                     const service::QueryService::Stats& service) {
  std::printf(
      "final stats: %llu admitted, %llu shed, %llu deadline-rejected, "
      "%llu protocol errors\n",
      static_cast<unsigned long long>(stats.admitted),
      static_cast<unsigned long long>(stats.shed),
      static_cast<unsigned long long>(stats.deadline_rejected),
      static_cast<unsigned long long>(stats.protocol_errors));
  std::printf(
      "connections: %llu accepted, %llu rejected; frames %llu in / %llu out\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.connections_rejected),
      static_cast<unsigned long long>(stats.frames_received),
      static_cast<unsigned long long>(stats.frames_sent));
  for (uint8_t op = server::kMinOpcode; op <= server::kMaxOpcode; ++op) {
    const server::OpcodeLatency& l = stats.latency[op];
    if (l.count == 0 && l.shed == 0 && l.deadline_rejected == 0) continue;
    std::printf(
        "  %-12s %8llu calls  p50 %lluus  p90 %lluus  p99 %lluus  "
        "shed %llu  deadline-rejected %llu\n",
        server::OpcodeName(static_cast<server::Opcode>(op)),
        static_cast<unsigned long long>(l.count),
        static_cast<unsigned long long>(l.p50_us),
        static_cast<unsigned long long>(l.p90_us),
        static_cast<unsigned long long>(l.p99_us),
        static_cast<unsigned long long>(l.shed),
        static_cast<unsigned long long>(l.deadline_rejected));
  }
  std::printf("service: %llu queries, cache hits %llu misses %llu\n",
              static_cast<unsigned long long>(service.queries),
              static_cast<unsigned long long>(service.cache.hits),
              static_cast<unsigned long long>(service.cache.misses));
}

int Run(const Flags& flags) {
  // Block the shutdown signals before any thread spawns, so every thread
  // inherits the mask and sigwait below is the one consumer.
  sigset_t mask;
  sigemptyset(&mask);
  sigaddset(&mask, SIGINT);
  sigaddset(&mask, SIGTERM);
  if (pthread_sigmask(SIG_BLOCK, &mask, nullptr) != 0) {
    return Fail(Status::Internal("pthread_sigmask failed"));
  }

  auto backend = service::OpenBackend(flags.corpus);
  if (!backend.ok()) return Fail(backend.status());
  std::fputs(backend->summary.c_str(), stdout);
  service::QueryServiceOptions service_options;
  service_options.threads = flags.threads;
  std::unique_ptr<service::QueryService> query_service =
      backend->NewService(service_options);

  auto view_text = tools::ReadViewText(flags.view);
  if (!view_text.ok()) return Fail(view_text.status());
  Status registered = query_service->RegisterView("default", *view_text);
  if (!registered.ok()) return Fail(registered);

  server::ServerOptions options;
  options.host = flags.host;
  options.port = static_cast<uint16_t>(flags.port);
  options.worker_threads = flags.workers;
  options.admission_queue_limit = static_cast<size_t>(flags.admission_limit);
  options.max_connections = static_cast<size_t>(flags.max_conns);
  options.trace_all = flags.trace_all;
  options.slow_query_threshold_us =
      static_cast<uint64_t>(flags.slow_threshold_us);
  options.slow_query_capacity = static_cast<size_t>(flags.slow_log);
  server::Server server(query_service.get(), options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  std::printf("listening on %s:%u\n", flags.host.c_str(), server.port());
  std::fflush(stdout);
  if (!flags.port_file.empty()) {
    std::ofstream out(flags.port_file, std::ios::trunc);
    out << server.port() << "\n";
    if (!out) {
      server.Stop();
      return Fail(Status::Internal("cannot write " + flags.port_file));
    }
  }

  int signal_number = 0;
  if (sigwait(&mask, &signal_number) != 0) {
    server.Stop();
    return Fail(Status::Internal("sigwait failed"));
  }
  std::printf("caught signal %d, shutting down\n", signal_number);
  server.Stop();
  PrintFinalStats(server.SnapshotStats(), query_service->stats());
  // The same bytes the Stats RPC serves — scrapeable post-mortem.
  std::printf("stats exposition:\n%s", server.StatsText().c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags;
  if (!ParseFlags(argc, argv, &flags)) return Usage();
  if (flags.positional.size() > 1) return Usage();
  if (!flags.positional.empty()) flags.corpus.source = flags.positional[0];
  return Run(flags);
}

// Server: the loopback differential — every response crossing the
// socket must be byte-identical (modulo wall-clock timings) to the same
// query against an in-process QueryService, including typed errors;
// cursors die with their connection; a saturated worker pool sheds with
// kResourceExhausted immediately; expired deadlines cross the wire as
// kDeadlineExceeded. Runs under the TSan CI leg.
#include "server/server.h"

#include <atomic>
#include <chrono>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "index/index_builder.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/protocol.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "workload/bookrev_generator.h"

namespace quickview::server {
namespace {

using std::chrono::milliseconds;

/// One series of a Stats reply; -1 when the series is absent, so a
/// missing series never passes for a zero.
int64_t WireValue(const std::string& stats, std::string_view series) {
  return obs::ExpositionValue(stats, series).value_or(-1);
}

/// All 64 ordered non-empty keyword subsets of the demo corpus' planted
/// terms — pairwise-distinct plan signatures, so both services' caches
/// see the identical miss/hit sequence (bench_throughput's batch idiom).
const std::vector<std::vector<std::string>>& MixedKeywordSets() {
  static const auto* kSets = [] {
    const std::vector<std::string> terms{"xml", "search", "web", "database"};
    auto* sets = new std::vector<std::vector<std::string>>();
    for (size_t a = 0; a < terms.size(); ++a) {
      sets->push_back({terms[a]});
      for (size_t b = 0; b < terms.size(); ++b) {
        if (b == a) continue;
        sets->push_back({terms[a], terms[b]});
        for (size_t c = 0; c < terms.size(); ++c) {
          if (c == a || c == b) continue;
          sets->push_back({terms[a], terms[b], terms[c]});
          for (size_t d = 0; d < terms.size(); ++d) {
            if (d == a || d == b || d == c) continue;
            sets->push_back({terms[a], terms[b], terms[c], terms[d]});
          }
        }
      }
    }
    return sets;
  }();
  return *kSets;
}

/// The byte-parity canonical form: timings are wall-clock noise, all
/// else must match bit for bit (scores cross as IEEE-754 bit patterns).
std::string CanonicalBytes(engine::SearchResponse resp) {
  resp.timings = engine::ModuleTimings{};
  std::string encoded;
  Encode(resp, &encoded);
  return encoded;
}

/// Hits-only canonical form, for comparing a paged drain to a one-shot
/// response.
std::string HitBytes(std::vector<engine::SearchHit> hits) {
  engine::SearchResponse resp;
  resp.hits = std::move(hits);
  return CanonicalBytes(std::move(resp));
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
    indexes_ = index::BuildDatabaseIndexes(*db_);
    store_ = std::make_unique<storage::DocumentStore>(*db_);
  }

  std::unique_ptr<service::QueryService> MakeService() {
    auto service = std::make_unique<service::QueryService>(
        db_.get(), indexes_.get(), store_.get());
    Status registered =
        service->RegisterView("default", workload::BookRevView());
    EXPECT_TRUE(registered.ok()) << registered.ToString();
    return service;
  }

  /// Starts a server over a fresh service; `remote_service_` keeps it
  /// alive for the test body.
  std::unique_ptr<Server> StartServer(ServerOptions options = {}) {
    remote_service_ = MakeService();
    auto server = std::make_unique<Server>(remote_service_.get(), options);
    Status started = server->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return server;
  }

  Client ConnectTo(const Server& server) {
    Client client;
    Status connected = client.Connect("127.0.0.1", server.port());
    EXPECT_TRUE(connected.ok()) << connected.ToString();
    return client;
  }

  static service::BatchQuery ToQuery(const SearchRpcRequest& req) {
    service::BatchQuery query;
    query.view = req.view;
    query.keywords = req.keywords;
    query.options.top_k = req.top_k;
    query.options.conjunctive = req.conjunctive;
    return query;
  }

  std::shared_ptr<xml::Database> db_;
  std::unique_ptr<index::DatabaseIndexes> indexes_;
  std::unique_ptr<storage::DocumentStore> store_;
  std::unique_ptr<service::QueryService> remote_service_;
};

TEST_F(ServerTest, LoopbackByteParityOnMixedWorkload) {
  auto server = StartServer();
  auto local = MakeService();
  Client client = ConnectTo(*server);

  const auto& sets = MixedKeywordSets();
  ASSERT_GE(sets.size(), 64u);
  for (size_t i = 0; i < sets.size(); ++i) {
    SearchRpcRequest request;
    request.view = "default";
    request.keywords = sets[i];
    request.top_k = 10;
    request.conjunctive = false;
    auto expected = local->SearchOne(ToQuery(request));
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();

    if (i % 4 == 3) {
      // Paged drain: OpenCursor + FetchNext pages must reassemble the
      // exact hit list of the one-shot response.
      auto opened = client.OpenCursor(request);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
      EXPECT_EQ(opened->matching, expected->stats.matching_results);
      std::vector<engine::SearchHit> hits;
      for (;;) {
        auto page = client.FetchNext(opened->cursor_id, 3);
        ASSERT_TRUE(page.ok()) << page.status().ToString();
        for (auto& hit : page->hits) hits.push_back(std::move(hit));
        if (page->done || page->hits.empty()) break;
      }
      EXPECT_EQ(HitBytes(std::move(hits)), HitBytes(expected->hits))
          << "paged set " << i;
      Status closed = client.CloseCursor(opened->cursor_id);
      EXPECT_TRUE(closed.ok()) << closed.ToString();
    } else {
      auto response = client.Search(request);
      ASSERT_TRUE(response.ok()) << response.status().ToString();
      EXPECT_EQ(CanonicalBytes(std::move(response).value()),
                CanonicalBytes(std::move(expected).value()))
          << "set " << i;
    }
  }
  // Both caches saw the identical sequence, as the wire reports it.
  auto remote_stats = client.Stats();
  ASSERT_TRUE(remote_stats.ok()) << remote_stats.status().ToString();
  service::QueryService::Stats local_stats = local->stats();
  EXPECT_EQ(WireValue(*remote_stats, "qv_service_queries_total"),
            static_cast<int64_t>(local_stats.queries));
  EXPECT_EQ(WireValue(*remote_stats, "qv_pdtcache_hits_total"),
            static_cast<int64_t>(local_stats.cache.hits));
  EXPECT_EQ(WireValue(*remote_stats, "qv_pdtcache_misses_total"),
            static_cast<int64_t>(local_stats.cache.misses));
  EXPECT_EQ(WireValue(*remote_stats, "qv_server_protocol_errors_total"), 0);
}

TEST_F(ServerTest, ErrorStatusParityOnTheWire) {
  auto server = StartServer();
  auto local = MakeService();
  Client client = ConnectTo(*server);

  // Unknown view, a keyword the boundary validation rejects (a single
  // quote would break out of the spliced XQuery literal), and an empty
  // keyword list: the wire must carry the SAME typed status + message
  // as the in-process call.
  SearchRpcRequest unknown;
  unknown.view = "no-such-view";
  unknown.keywords = {"xml"};
  SearchRpcRequest bad_keyword;
  bad_keyword.view = "default";
  bad_keyword.keywords = {"xml'quote"};
  SearchRpcRequest no_keywords;
  no_keywords.view = "default";
  for (const SearchRpcRequest& request : {unknown, bad_keyword,
                                          no_keywords}) {
    auto remote = client.Search(request);
    auto expected = local->SearchOne(ToQuery(request));
    ASSERT_FALSE(remote.ok());
    ASSERT_FALSE(expected.ok());
    EXPECT_EQ(remote.status().code(), expected.status().code());
    EXPECT_EQ(remote.status().message(), expected.status().message());
  }

  // Mutations against a static service: InvalidArgument, both ways.
  Status remote_insert = client.Insert("new.xml", "<a/>");
  Status local_insert = local->InsertDocument("new.xml", "<a/>");
  ASSERT_FALSE(remote_insert.ok());
  EXPECT_EQ(remote_insert.code(), local_insert.code());
  EXPECT_EQ(remote_insert.message(), local_insert.message());

  // Unknown cursor id: typed NotFound.
  auto fetched = client.FetchNext(12345, 3);
  ASSERT_FALSE(fetched.ok());
  EXPECT_EQ(fetched.status().code(), StatusCode::kNotFound);
  Status closed = client.CloseCursor(12345);
  EXPECT_EQ(closed.code(), StatusCode::kNotFound);
}

TEST_F(ServerTest, RegisterViewOverTheWire) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  Status registered =
      client.RegisterView("second", workload::BookRevView());
  ASSERT_TRUE(registered.ok()) << registered.ToString();
  SearchRpcRequest request;
  request.view = "second";
  request.keywords = {"xml", "search"};
  auto response = client.Search(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->hits.size(), 0u);
}

TEST_F(ServerTest, DisconnectDestroysTheConnectionsCursors) {
  auto server = StartServer();
  {
    Client client = ConnectTo(*server);
    SearchRpcRequest request;
    request.view = "default";
    request.keywords = {"xml", "search"};
    for (int i = 0; i < 3; ++i) {
      auto opened = client.OpenCursor(request);
      ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    }
    auto page_owner = client.OpenCursor(request);
    ASSERT_TRUE(page_owner.ok());
    auto page = client.FetchNext(page_owner->cursor_id, 2);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    EXPECT_EQ(server->SnapshotStats().open_cursors, 4u);
    client.Close();
  }
  // The reader notices the disconnect and sweeps; poll until it has.
  for (int i = 0; i < 200; ++i) {
    if (server->SnapshotStats().open_cursors == 0) break;
    std::this_thread::sleep_for(milliseconds(10));
  }
  EXPECT_EQ(server->SnapshotStats().open_cursors, 0u);
}

TEST_F(ServerTest, FullAdmissionQueueShedsImmediately) {
  ServerOptions options;
  options.worker_threads = 1;
  options.admission_queue_limit = 2;
  auto server = StartServer(options);
  // Stall the single worker so admitted requests stay queued.
  auto release = std::make_shared<std::atomic<bool>>(false);
  server->worker_pool()->Submit([release] {
    while (!release->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.SetRecvTimeout(milliseconds(5000)).ok());
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml"};
  std::string payload;
  Encode(request, &payload);
  // Fill the gate (ids 1, 2), then overflow it (id 3). The shed reply
  // must arrive while the admitted requests are still stuck behind the
  // stalled pool — i.e. well inside the client's 5 s read deadline.
  for (uint64_t id = 1; id <= 3; ++id) {
    ASSERT_TRUE(client.SendRequest(Opcode::kSearch, id, payload).ok());
  }
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 3u);
  ASSERT_NE(frame->flags & kFlagError, 0);
  Status shed;
  ASSERT_TRUE(DecodeStatusPayload(frame->payload, &shed).ok());
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("admission queue full"), std::string::npos);
  ServerSnapshot mid = server->SnapshotStats();
  EXPECT_EQ(mid.shed, 1u);
  // Shedding is attributed to the opcode that was shed.
  EXPECT_EQ(mid.latency[static_cast<size_t>(Opcode::kSearch)].shed, 1u);
  EXPECT_EQ(mid.latency[static_cast<size_t>(Opcode::kStats)].shed, 0u);

  // Release the pool: the two admitted requests complete normally.
  release->store(true, std::memory_order_release);
  for (uint64_t expected_id : {uint64_t{1}, uint64_t{2}}) {
    auto reply = client.ReadFrame();
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id, expected_id);
    EXPECT_EQ(reply->flags & kFlagError, 0);
  }
  EXPECT_EQ(server->SnapshotStats().admitted, 2u);
}

TEST_F(ServerTest, ExpiredDeadlineCrossesTheWireTyped) {
  ServerOptions options;
  options.worker_threads = 1;
  auto server = StartServer(options);
  auto release = std::make_shared<std::atomic<bool>>(false);
  server->worker_pool()->Submit([release] {
    while (!release->load(std::memory_order_acquire)) {
      std::this_thread::sleep_for(milliseconds(1));
    }
  });

  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.SetRecvTimeout(milliseconds(5000)).ok());
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml"};
  request.deadline_ms = 50;
  std::string payload;
  Encode(request, &payload);
  ASSERT_TRUE(client.SendRequest(Opcode::kSearch, 1, payload).ok());
  // Hold the pool past the deadline, then let the worker find the
  // request already expired.
  std::this_thread::sleep_for(milliseconds(150));
  release->store(true, std::memory_order_release);

  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  ASSERT_NE(frame->flags & kFlagError, 0);
  Status expired;
  ASSERT_TRUE(DecodeStatusPayload(frame->payload, &expired).ok());
  EXPECT_EQ(expired.code(), StatusCode::kDeadlineExceeded);
  ServerSnapshot stats = server->SnapshotStats();
  EXPECT_EQ(stats.deadline_rejected, 1u);
  EXPECT_EQ(
      stats.latency[static_cast<size_t>(Opcode::kSearch)].deadline_rejected,
      1u);
}

TEST_F(ServerTest, ConnectionCapRejectsWithTypedError) {
  ServerOptions options;
  options.max_connections = 1;
  auto server = StartServer(options);
  Client first = ConnectTo(*server);
  auto stats = first.Stats();  // round-trip: the accept is processed
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();

  Client second;
  ASSERT_TRUE(second.Connect("127.0.0.1", server->port()).ok());
  ASSERT_TRUE(second.SetRecvTimeout(milliseconds(5000)).ok());
  // The server sends one unsolicited error frame and closes; any RPC on
  // this connection surfaces the typed rejection.
  auto rejected = second.Stats();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  // The first connection is unaffected.
  auto again = first.Stats();
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(WireValue(*again, "qv_server_connections_rejected_total"), 1);
}

TEST_F(ServerTest, LiveBackendMutatesOverTheWire) {
  auto live_db = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  storage::LiveDatabase live(live_db);
  service::QueryService service(&live);
  Status registered =
      service.RegisterView("default", workload::BookRevView());
  ASSERT_TRUE(registered.ok());
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());

  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  Status inserted = client.Insert(
      "extra.xml", "<books><book><title>networked xml serving</title>"
                   "</book></books>");
  EXPECT_TRUE(inserted.ok()) << inserted.ToString();
  Status removed = client.Remove("extra.xml");
  EXPECT_TRUE(removed.ok()) << removed.ToString();
  Status missing = client.Remove("extra.xml");
  EXPECT_EQ(missing.code(), StatusCode::kNotFound);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(WireValue(*stats, "qv_service_document_inserts_total"), 1);
  EXPECT_EQ(WireValue(*stats, "qv_service_document_removes_total"), 1);
  server.Stop();
}

TEST_F(ServerTest, TracedSearchReturnsCompleteSpanTree) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml", "search"};
  std::string trace;
  auto response = client.Search(request, &trace);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_FALSE(response->hits.empty());
  // The span tree crosses the wire and covers the whole pipeline: plan +
  // PDT build + evaluation under the shard span, then merge, then hit
  // materialization (kSearch drains its cursor server-side).
  ASSERT_FALSE(trace.empty());
  EXPECT_EQ(trace.rfind("trace ", 0), 0u) << trace;
  for (const char* span :
       {"\n  shard shard=0", "\n    plan", "\n    build_pdts",
        "\n    evaluate", "\n  merge", "\n  materialize"}) {
    EXPECT_NE(trace.find(span), std::string::npos) << span << "\n" << trace;
  }
  // The same request untraced still answers with a plain payload.
  auto plain = client.Search(request);
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
}

TEST_F(ServerTest, TracedCursorKeepsAttributingAcrossFetches) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml"};
  request.top_k = 10;
  std::string open_trace;
  auto opened = client.OpenCursor(request, &open_trace);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  // At open time nothing has been materialized yet.
  ASSERT_FALSE(open_trace.empty());
  EXPECT_NE(open_trace.find("\n  shard shard=0"), std::string::npos);
  EXPECT_EQ(open_trace.find("materialize"), std::string::npos) << open_trace;
  // The cursor keeps its trace: a traced fetch returns the grown tree.
  std::string fetch_trace;
  auto page = client.FetchNext(opened->cursor_id, 5, &fetch_trace);
  ASSERT_TRUE(page.ok()) << page.status().ToString();
  EXPECT_NE(fetch_trace.find("\n  materialize"), std::string::npos)
      << fetch_trace;
  EXPECT_TRUE(client.CloseCursor(opened->cursor_id).ok());
}

TEST_F(ServerTest, StatsTextIsPrometheusExposition) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml"};
  ASSERT_TRUE(client.Search(request).ok());
  auto text = client.Stats();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  // One registry spans every layer: server frames and per-opcode latency
  // histograms next to the service, cache and buffer-pool series.
  for (const char* needle :
       {"# TYPE qv_server_frames_received_total counter",
        "# TYPE qv_server_latency_us histogram", "opcode=\"Search\"",
        "le=\"+Inf\"", "qv_service_queries_total 1",
        "qv_threadpool_tasks_submitted_total{pool=\"rpc\"}",
        "qv_pdtcache_misses_total 1"}) {
    EXPECT_NE(text->find(needle), std::string::npos) << needle << "\n" << *text;
  }
  EXPECT_EQ(WireValue(*text, "qv_service_queries_total"), 1);
}

TEST_F(ServerTest, StatsRequestWithPayloadIsTypedParseError) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  ASSERT_TRUE(client.SetRecvTimeout(milliseconds(5000)).ok());
  // A kStats request has an empty payload; a stray byte is a
  // payload-level error that leaves the stream usable.
  const std::string stray(1, '\x01');
  ASSERT_TRUE(client.SendRequest(Opcode::kStats, 9, stray).ok());
  auto frame = client.ReadFrame();
  ASSERT_TRUE(frame.ok()) << frame.status().ToString();
  EXPECT_EQ(frame->request_id, 9u);
  ASSERT_NE(frame->flags & kFlagError, 0);
  Status rejected;
  ASSERT_TRUE(DecodeStatusPayload(frame->payload, &rejected).ok());
  EXPECT_EQ(rejected.code(), StatusCode::kParseError);
  // The same connection keeps serving.
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(WireValue(*stats, "qv_server_protocol_errors_total"), 0);
}

TEST_F(ServerTest, DepthBombsGetTypedErrorsAndTheServerKeepsServing) {
  auto live_db = workload::GenerateBookRevDatabase(workload::BookRevOptions{});
  storage::LiveDatabase live(live_db);
  service::QueryService service(&live);
  ASSERT_TRUE(service.RegisterView("default", workload::BookRevView()).ok());
  Server server(&service, ServerOptions{});
  ASSERT_TRUE(server.Start().ok());
  Client client;
  ASSERT_TRUE(client.Connect("127.0.0.1", server.port()).ok());
  ASSERT_TRUE(client.SetRecvTimeout(milliseconds(30000)).ok());

  // 100,000 nesting levels: ~600 KB per frame, far past both parsers'
  // depth limit. Without the limit each one overflows the stack.
  constexpr int kLevels = 100000;
  std::string deep_xml;
  for (int i = 0; i < kLevels; ++i) deep_xml += "<a>";
  for (int i = 0; i < kLevels; ++i) deep_xml += "</a>";
  Status inserted = client.Insert("deep.xml", deep_xml);
  EXPECT_EQ(inserted.code(), StatusCode::kInvalidArgument)
      << inserted.ToString();
  EXPECT_NE(inserted.message().find("nesting"), std::string::npos)
      << inserted.ToString();

  std::string deep_view(kLevels, '(');
  deep_view += "fn:doc(books.xml)/books//book";
  deep_view += std::string(kLevels, ')');
  Status registered = client.RegisterView("deep", deep_view);
  EXPECT_EQ(registered.code(), StatusCode::kInvalidArgument)
      << registered.ToString();
  EXPECT_NE(registered.message().find("nesting"), std::string::npos)
      << registered.ToString();

  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml", "search"};
  auto response = client.Search(request);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_GT(response->hits.size(), 0u);
  server.Stop();
}

TEST_F(ServerTest, SlowQueryLogSurfacesWorstRequests) {
  ServerOptions options;
  options.trace_all = true;
  options.slow_query_capacity = 2;
  auto server = StartServer(options);
  Client client = ConnectTo(*server);
  SearchRpcRequest request;
  request.view = "default";
  request.keywords = {"xml"};
  for (int i = 0; i < 5; ++i) {
    auto response = client.Search(request);  // never sets kFlagTrace
    ASSERT_TRUE(response.ok()) << response.status().ToString();
  }
  ServerSnapshot stats = server->SnapshotStats();
  ASSERT_EQ(stats.slow_queries.size(), 2u);  // worst-K, not last-K
  EXPECT_GE(stats.slow_queries[0].latency_us, stats.slow_queries[1].latency_us);
  for (const obs::SlowQueryLog::Entry& entry : stats.slow_queries) {
    EXPECT_EQ(entry.opcode, "Search");
    EXPECT_NE(entry.description.find("search view=default keywords=xml"),
              std::string::npos)
        << entry.description;
    // trace_all traced the request server-side even though the client
    // never asked, so the log can explain the latency.
    EXPECT_NE(entry.trace.find("shard"), std::string::npos) << entry.trace;
  }
  // The log crosses the wire as comment lines after the exposition:
  // both entries, worst first, each followed by its indented trace.
  auto wire = client.Stats();
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  std::vector<uint64_t> latencies;
  size_t trace_lines = 0;
  size_t pos = 0;
  while (pos < wire->size()) {
    const size_t eol = wire->find('\n', pos);
    ASSERT_NE(eol, std::string::npos) << "reply must end with a newline";
    const std::string line = wire->substr(pos, eol - pos);
    pos = eol + 1;
    const std::string entry_prefix = "# slow_query latency_us=";
    if (line.rfind(entry_prefix, 0) == 0) {
      const size_t request_id = line.find(" request_id=");
      ASSERT_NE(request_id, std::string::npos) << line;
      latencies.push_back(std::stoull(line.substr(
          entry_prefix.size(), request_id - entry_prefix.size())));
      EXPECT_NE(line.find(" opcode=Search search view=default keywords=xml"),
                std::string::npos)
          << line;
    } else if (line.rfind("#   ", 0) == 0) {
      ASSERT_FALSE(latencies.empty()) << "trace line before any entry";
      ++trace_lines;
    } else {
      // Every other line is ordinary exposition, and all of it precedes
      // the slow-query log.
      EXPECT_TRUE(latencies.empty()) << line;
    }
  }
  ASSERT_EQ(latencies.size(), 2u) << *wire;
  EXPECT_GE(latencies[0], latencies[1]);
  EXPECT_NE(wire->find("\n#   trace "), std::string::npos) << *wire;
  EXPECT_NE(wire->find("\n#     shard shard=0"), std::string::npos) << *wire;
  EXPECT_GE(trace_lines, 4u);
}

TEST_F(ServerTest, StopWithConnectedClientsIsClean) {
  auto server = StartServer();
  Client client = ConnectTo(*server);
  auto stats = client.Stats();
  ASSERT_TRUE(stats.ok());
  server->Stop();  // must join readers + drain workers without hanging
  // The client's next read sees the shutdown, not a hang.
  ASSERT_TRUE(client.SetRecvTimeout(milliseconds(5000)).ok());
  auto after = client.Stats();
  EXPECT_FALSE(after.ok());
}

}  // namespace
}  // namespace quickview::server

#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <map>
#include <memory>
#include <random>
#include <set>
#include <thread>
#include <tuple>

#include "common/sync.h"
#include "engine/result_cursor.h"
#include "index/index_builder.h"
#include "loadgen.h"
#include "pagestore/delta_log.h"
#include "pagestore/pack.h"
#include "pagestore/packed_db.h"
#include "pagestore/page.h"
#include "pagestore/wal.h"
#include "server/server.h"
#include "service/prepared_query_cache.h"
#include "service/query_service.h"
#include "storage/document_store.h"
#include "storage/live_database.h"
#include "workload/bookrev_generator.h"
#include "workload/inex_generator.h"
#include "workload/view_factory.h"
#include "xml/parser.h"
#include "xml/serializer.h"

namespace qvbench {

namespace qv = quickview;
using qv::engine::SearchHit;

namespace {

// ---------------------------------------------------------------------------
// Fixed settings. Later changes cite the workloads by name, so these stay
// put; a change to any of them is a change to the benchmark.
// ---------------------------------------------------------------------------

/// cold_inex_paged: 4 scale units of 2 MiB of inex.xml, served from a
/// .qvpack through the default 256-frame (1 MiB) buffer pool.
constexpr uint64_t kInexBytes = 4 * (uint64_t{2} << 20);
constexpr size_t kPoolFrames = 256;
constexpr size_t kColdStream = 4000;   // queries generated per run
constexpr size_t kColdSampleEvery = 8;  // oracle samples 1 query in 8
constexpr size_t kColdReplay = 30;     // queries per in-process replay

/// hot_bookrev_serve / live_ingest_mixed: 600 books x up to 5 reviews.
constexpr int kBooks = 600;
constexpr int kReviewsPerBook = 5;
/// Open-loop read rate: about 40% of the measured closed-loop capacity.
/// At 100-200 reads/s the vCPUs idle between requests and wake-up delays
/// on a shared host made p50 swing by up to 2x between runs.
constexpr double kHotRate = 400;  // reads/s, open-loop phase
/// Open-loop reads are dealt over many connections: a connection waits
/// for each response, so with few of them a slow response delays the
/// reads queued behind it on the same connection and the generator's own
/// queue, not the server, sets the p50.
constexpr int kOpenLoopConnections = 16;
constexpr int kHotClosedConnections = 4;
constexpr double kHotOpenShare = 0.6;  // of the run; the rest is closed loop
constexpr size_t kHotReplay = 600;
constexpr double kLiveReadRate = 120;  // reads/s over kLiveReaders
constexpr int kLiveReaders = kOpenLoopConnections;
constexpr double kLiveWriteRate = 60;  // writes/s on one connection
constexpr size_t kIngestWindow = 16;   // live fresh documents
/// One write in kReplaceEvery replaces books.xml, a document the view
/// reads: one every 8 s, the first 4 s into the run. Each costs ~130 ms
/// of exclusive lock and invalidates every cached plan of the view; more
/// often and the slow reads behind them crowd the p90. (Replacing
/// reviews.xml instead costs ~0.7 s per write at this corpus size.)
constexpr int kReplaceEvery = 480;
/// Schedule prefix replayed in process; holds one books.xml replacement.
constexpr double kLiveReplaySeconds = 6;

/// Latency percentiles are medians over slices of this many requests.
constexpr size_t kSliceSamples = 100;
constexpr size_t kMaxSlices = 10;

constexpr size_t kCacheCapacity = 128;  // PreparedQueryCache default
constexpr int kServerWorkers = 4;
constexpr int kSetupRepeats = 3;
/// Longest loopback pass of the traced run.
constexpr double kTracedLoopbackSeconds = 3;
/// Layer-sum tolerance: a request's stage spans must cover its wall time
/// up to this share (the rest is the benchmark's own glue between calls).
constexpr double kStageGapTolerance = 0.10;

const char* const kTopics[] = {"xml",      "search",  "web",     "database",
                               "services", "systems", "queries", "index"};
const char* const kPlantedInex[] = {"ieee",   "computing", "thomas",
                                    "control", "moore",     "burnett"};

uint64_t Mix(uint64_t seed, uint64_t tag) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + tag * 0xBF58476D1CE4E5B9ull +
               0x94D049BB133111EBull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

struct SetupTimes {
  double generate_s = 0;
  double index_s = 0;
  double pack_s = 0;
  double open_s = 0;  // pack open, or WAL open on live
  double total_s = 0;
};

/// A QueryService behind a loopback server.
struct Served {
  std::unique_ptr<qv::service::QueryService> service;
  std::unique_ptr<qv::server::Server> server;
  uint16_t port() const { return server->port(); }
};

qv::service::QueryServiceOptions ServiceOptions() {
  qv::service::QueryServiceOptions options;
  options.threads = 1;  // OpenSearch runs on the server's worker threads
  options.cache.capacity = kCacheCapacity;
  return options;
}

std::unique_ptr<qv::server::Server> StartServer(
    qv::service::QueryService* service) {
  qv::server::ServerOptions options;
  options.worker_threads = kServerWorkers;
  auto server = std::make_unique<qv::server::Server>(service, options);
  Require(server->Start(), "start the server");
  return server;
}

qv::service::BatchQuery ToBatch(const ReadOp& op) {
  qv::service::BatchQuery query;
  query.view = op.view;
  query.keywords = op.keywords;
  query.options.top_k = op.top_k;
  query.options.conjunctive = op.conjunctive;
  return query;
}

/// Issues every op once over one connection (warm-up).
void WarmOverWire(uint16_t port, const std::vector<const ReadOp*>& ops) {
  qv::server::Client client;
  Require(client.Connect("127.0.0.1", port), "connect for warm-up");
  for (const ReadOp* op : ops) {
    Unwrap(RunRead(&client, *op), "warm-up read");
  }
}

uint64_t SerializedBytes(const qv::xml::Database& db) {
  uint64_t bytes = 0;
  for (const auto& [name, doc] : db.documents()) {
    bytes += qv::xml::Serialize(*doc).size();
  }
  return bytes;
}

double RatioOrZero(double num, double den) { return den > 0 ? num / den : 0; }

/// Runs an in-process pass on a thread of its own, as a server worker
/// would: the main thread's heap holds the generated corpus, and work
/// allocating there runs measurably slower than on a worker thread.
template <typename F>
void OnThread(F body) {
  std::thread thread(body);
  thread.join();
}

// ---------------------------------------------------------------------------
// Request streams.
// ---------------------------------------------------------------------------

struct NamedView {
  std::string name;
  std::string text;
};

/// Authors with their publications (nesting 2), over one or two value
/// joins. Deeper nesting is left out: at this corpus size a group or
/// supergroup result holds a sizeable share of the corpus, so a top-10
/// query would materialize every view result and the PDT layer would be
/// a minor share of the work.
std::vector<NamedView> InexViews() {
  std::vector<NamedView> views;
  for (int joins = 1; joins <= 2; ++joins) {
    qv::workload::ViewSpec spec;
    spec.num_joins = joins;
    spec.nesting_level = 2;
    views.push_back({"inex_j" + std::to_string(joins) + "_n2",
                     qv::workload::BuildInexView(spec)});
  }
  return views;
}

/// Disjunctive pairs of one planted term and one filler term over a
/// random view: far more distinct plans than the PDT cache holds.
std::vector<ReadOp> ColdStream(std::mt19937_64& rng,
                               const std::vector<NamedView>& views,
                               size_t count) {
  std::vector<ReadOp> ops;
  ops.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    ReadOp op;
    op.view = views[rng() % views.size()].name;
    op.keywords = {kPlantedInex[rng() % 6], "w" + std::to_string(rng() % 4000)};
    op.conjunctive = false;
    op.top_k = 10;
    ops.push_back(std::move(op));
  }
  return ops;
}

/// The hot read mix: every keyword set of one or two topics, each as a
/// one-shot Search (top 10) and as a cursor session (top 30, pages of 10),
/// drawn Zipf-skewed in a fixed popularity order.
class ReadMix {
 public:
  ReadMix() {
    std::vector<std::vector<std::string>> sets;
    for (const char* t : kTopics) sets.push_back({t});
    for (int a = 0; a < 8; ++a) {
      for (int b = a + 1; b < 8; ++b) sets.push_back({kTopics[a], kTopics[b]});
    }
    double total = 0;
    for (size_t rank = 0; rank < sets.size(); ++rank) {
      const double weight = 1.0 / std::pow(static_cast<double>(rank + 1), 1.1);
      const bool conjunctive = sets[rank].size() == 2 && rank % 2 == 0;
      for (int kind = 0; kind < 2; ++kind) {
        ReadOp op;
        op.view = "bookrev";
        op.keywords = sets[rank];
        op.conjunctive = conjunctive;
        op.top_k = kind == 0 ? 10 : 30;
        op.page = kind == 0 ? 0 : 10;
        ops_.push_back(std::move(op));
        total += weight * (kind == 0 ? 0.7 : 0.3);
        cumulative_.push_back(total);
      }
    }
    for (double& c : cumulative_) c /= total;
  }

  const std::vector<ReadOp>& ops() const { return ops_; }
  std::vector<const ReadOp*> distinct() const {
    std::vector<const ReadOp*> out;
    for (const ReadOp& op : ops_) out.push_back(&op);
    return out;
  }
  const ReadOp* Draw(std::mt19937_64& rng) const {
    double u = static_cast<double>(rng() >> 11) * 0x1.0p-53;
    size_t i = std::lower_bound(cumulative_.begin(), cumulative_.end(), u) -
               cumulative_.begin();
    return &ops_[std::min(i, ops_.size() - 1)];
  }

 private:
  std::vector<ReadOp> ops_;
  std::vector<double> cumulative_;
};

/// Reads due at a fixed rate, dealt round-robin over `connections`.
std::vector<std::vector<Request>> ReadSchedule(const ReadMix& mix,
                                               std::mt19937_64& rng,
                                               double rate, int connections,
                                               double seconds) {
  std::vector<std::vector<Request>> out(connections);
  const size_t count = static_cast<size_t>(std::ceil(seconds * rate));
  for (size_t i = 0; i < count; ++i) {
    Request req;
    req.due_s = static_cast<double>(i) / rate;
    req.read = mix.Draw(rng);
    out[i % connections].push_back(req);
  }
  return out;
}

/// A fresh document the view never reads: four books with topic titles.
std::string IngestXml(std::mt19937_64& rng, size_t generation) {
  std::string out = "<books>";
  for (int i = 0; i < 4; ++i) {
    out += "<book><isbn>ing-" + std::to_string(generation) + "-" +
           std::to_string(i) + "</isbn><title>" + kTopics[rng() % 8] + " " +
           kTopics[rng() % 8] + " handbook</title><year>" +
           std::to_string(1990 + rng() % 16) + "</year></book>";
  }
  return out + "</books>";
}

/// The live write stream: fresh documents kept in a bounded window
/// (insert, then remove the oldest once the window is full), with every
/// kReplaceEvery-th write replacing books.xml by its own serialized
/// text — which invalidates the view's cached PDTs but not its answers.
std::vector<WriteOp> WriteStream(std::mt19937_64& rng, size_t count,
                                 const std::string& books_xml) {
  std::vector<WriteOp> ops;
  ops.reserve(count);
  std::deque<size_t> window;
  size_t generation = 0;
  for (size_t k = 0; k < count; ++k) {
    WriteOp op;
    if (k % kReplaceEvery == kReplaceEvery / 2) {
      op.name = "books.xml";
      op.xml = books_xml;
    } else if (window.size() >= kIngestWindow) {
      op.remove = true;
      op.name = "ingest" + std::to_string(window.front()) + ".xml";
      window.pop_front();
    } else {
      op.name = "ingest" + std::to_string(generation) + ".xml";
      op.xml = IngestXml(rng, generation);
      window.push_back(generation++);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

std::vector<std::vector<Request>> WriteSchedule(
    const std::vector<WriteOp>& writes, double rate, double seconds) {
  std::vector<std::vector<Request>> out(1);
  for (size_t k = 0; k < writes.size(); ++k) {
    Request req;
    req.due_s = static_cast<double>(k) / rate;
    if (req.due_s >= seconds) break;
    req.write = &writes[k];
    out[0].push_back(req);
  }
  return out;
}

/// All requests of `schedules` due before `seconds`, in due order.
std::vector<Request> Merged(const std::vector<std::vector<Request>>& schedules,
                            double seconds) {
  std::vector<Request> out;
  for (const auto& schedule : schedules) {
    for (const Request& req : schedule) {
      if (req.due_s < seconds) out.push_back(req);
    }
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const Request& a, const Request& b) {
                     return a.due_s < b.due_s;
                   });
  return out;
}

/// Expected answers per distinct read op, from the in-process service.
using Expected = std::map<const ReadOp*, std::vector<SearchHit>>;

Expected ExpectedAnswers(qv::service::QueryService* service,
                         const std::vector<const ReadOp*>& ops) {
  Expected out;
  for (const ReadOp* op : ops) {
    out[op] = Unwrap(service->SearchOne(ToBatch(*op)), "oracle SearchOne").hits;
  }
  return out;
}

ReadChecker CheckAgainst(const Expected* expected) {
  return [expected](const ReadOp& op, const std::vector<SearchHit>& hits) {
    auto it = expected->find(&op);
    if (it == expected->end()) return std::string("no oracle answer");
    return CompareHits(hits, it->second);
  };
}

/// The WAL record LiveDatabase logs for `op`.
std::string EncodeWrite(const WriteOp& op) {
  qv::pagestore::DeltaRecord record;
  record.tombstone = op.remove;
  record.name = op.name;
  record.xml = op.xml;
  return qv::pagestore::EncodeDeltaPayload(record);
}

// ---------------------------------------------------------------------------
// In-process replay: the server's call sequence made from outside, one
// span around each layer call.
// ---------------------------------------------------------------------------

/// Work counts of one replay; two replays of one stream must agree.
struct Counts {
  uint64_t reads = 0, writes = 0, builds = 0, hits = 0, view_results = 0;
  uint64_t store_fetches = 0, store_bytes = 0;
  uint64_t ids = 0, probes = 0, nodes = 0, pdt_bytes = 0;
  uint64_t pool_hits = 0, pool_misses = 0, pool_evictions = 0;
  uint64_t wal_appends = 0, wal_syncs = 0;

  auto Tie() const {
    return std::tie(reads, writes, builds, hits, view_results, store_fetches,
                    store_bytes, ids, probes, nodes, pdt_bytes, pool_hits,
                    pool_misses, pool_evictions, wal_appends, wal_syncs);
  }
  bool operator==(const Counts& o) const { return Tie() == o.Tie(); }
};

class Replayer {
 public:
  /// Static surface (in-memory or packed).
  Replayer(const qv::xml::Database* db, const qv::index::IndexSource* indexes,
           const qv::storage::DocumentStore* store, std::string view_text)
      : db_(db), indexes_(indexes), store_(store),
        view_text_(std::move(view_text)) {}
  /// Live surface: reads under the database's shared lock, writes under
  /// its exclusive lock, each write first appended to `wal`.
  Replayer(qv::storage::LiveDatabase* live, qv::pagestore::Wal* wal,
           std::string view_text)
      : live_(live), wal_(wal), view_text_(std::move(view_text)) {}
  Replayer(const Replayer&) = delete;
  Replayer& operator=(const Replayer&) = delete;

  void set_tracer(Tracer* tracer) { tracer_ = tracer; }
  void reset_counts() { counts_ = Counts{}; }
  const Counts& counts() const { return counts_; }
  /// View texts by registered name (cold serves several views).
  void AddView(const std::string& name, const std::string& text) {
    view_texts_[name] = text;
  }

  std::vector<SearchHit> Read(const ReadOp& op) {
    const int req = tracer_->BeginRequest("read");
    std::unique_ptr<qv::engine::ResultCursor> cursor;
    std::shared_ptr<const qv::storage::DocumentStore> lease;
    if (live_ != nullptr) {
      ::qv::ReaderLock lock(live_->mu());
      lease = live_->store();
      cursor = Open(live_->database(), live_->indexes(), lease.get(), op, req);
    } else {
      cursor = Open(db_, indexes_, store_, op, req);
    }
    std::vector<SearchHit> hits;
    const size_t page = op.page == 0 ? op.top_k : op.page;
    while (!cursor->Done()) {
      ScopedSpan span(tracer_, "engine.materialize", req);
      auto batch = Unwrap(cursor->FetchNext(page), "FetchNext");
      if (batch.empty()) break;
      for (SearchHit& hit : batch) hits.push_back(std::move(hit));
    }
    const auto& search = cursor->stats().search;
    ++counts_.reads;
    counts_.hits += hits.size();
    counts_.view_results += search.view_results;
    counts_.store_fetches += search.store_fetches;
    counts_.store_bytes += search.store_bytes;
    {
      // Dropping the cursor frees its evaluation arena.
      ScopedSpan span(tracer_, "engine.close", req);
      cursor.reset();
    }
    tracer_->End(req);
    return hits;
  }

  void Write(const WriteOp& op) {
    const int req = tracer_->BeginRequest("write");
    if (!op.remove) {
      ScopedSpan span(tracer_, "xml.parse", req);
      Unwrap(qv::xml::ParseXml(op.xml), "parse write payload");
    }
    {
      // Framing the record is part of logging it.
      ScopedSpan span(tracer_, "pagestore.wal.append", req);
      Unwrap(wal_->Append(EncodeWrite(op)), "WAL append");
    }
    {
      ScopedSpan span(tracer_, "storage.apply", req);
      ::qv::WriterLock lock(live_->mu());
      Require(op.remove ? live_->RemoveDocument(op.name)
                        : live_->InsertDocument(op.name, op.xml),
              "apply write");
      // The view reads books.xml and reviews.xml: a write to either
      // retires its cached PDTs (the service bumps its data epoch).
      if (op.name == "books.xml" || op.name == "reviews.xml") ++epoch_;
    }
    ++counts_.writes;
    tracer_->End(req);
  }

 private:
  std::unique_ptr<qv::engine::ResultCursor> Open(
      const qv::xml::Database* db, const qv::index::IndexSource* indexes,
      const qv::storage::DocumentStore* store, const ReadOp& op, int req) {
    qv::engine::ViewSearchEngine engine(db, indexes, store);
    auto view = view_texts_.find(op.view);
    const std::string& text =
        view == view_texts_.end() ? view_text_ : view->second;
    qv::engine::QueryPlan plan;
    {
      ScopedSpan span(tracer_, "qpt.plan", req);
      plan = Unwrap(engine.PlanQuery(qv::engine::ComposeKeywordQuery(
                        text, op.keywords, op.conjunctive)),
                    "PlanQuery");
    }
    const std::string key = op.view + "#" + std::to_string(epoch_) + "\x1f" +
                            plan.signature;
    std::shared_ptr<const qv::engine::PreparedQuery> prepared;
    {
      ScopedSpan span(tracer_, "service.pdt_cache", req);
      prepared = cache_.Get(key);
    }
    if (prepared == nullptr) {
      {
        ScopedSpan span(tracer_, "pdt.build", req);
        prepared = Unwrap(engine.BuildPdts(std::move(plan)), "BuildPdts");
      }
      const auto& stats = prepared->pdt_stats;
      ++counts_.builds;
      counts_.ids += stats.ids_processed;
      counts_.probes += stats.index_probes;
      counts_.nodes += stats.nodes_emitted;
      counts_.pdt_bytes += stats.pdt_bytes;
      ScopedSpan span(tracer_, "service.pdt_cache", req);
      cache_.Put(key, prepared);
    }
    qv::engine::SearchOptions options;
    options.top_k = op.top_k;
    options.conjunctive = op.conjunctive;
    ScopedSpan span(tracer_, "engine.evaluate", req);
    return Unwrap(engine.Open(prepared, options), "Open");
  }

  const qv::xml::Database* db_ = nullptr;
  const qv::index::IndexSource* indexes_ = nullptr;
  const qv::storage::DocumentStore* store_ = nullptr;
  qv::storage::LiveDatabase* live_ = nullptr;
  qv::pagestore::Wal* wal_ = nullptr;
  std::string view_text_;
  std::map<std::string, std::string> view_texts_;
  Tracer untraced_{false};
  Tracer* tracer_ = &untraced_;
  qv::service::PreparedQueryCache cache_{
      qv::service::PreparedQueryCache::Options{kCacheCapacity, 8, 0}};
  uint64_t epoch_ = 0;
  Counts counts_;
};

/// The first traced replay's spans and counts, and the replay wall times.
struct ReplayReport {
  Tracer traced{true};
  Counts counts;
  double untraced_s = 0;
  double traced_s = 0;
};

/// Runs `body` three times — traced, untraced, traced — on fresh state
/// from `make` each time, each pass on a new thread; checks that the
/// counts repeat exactly. The untraced pass runs between the traced ones
/// so that drift across passes does not read as tracing overhead.
template <typename Make, typename Body>
void ReplayThrice(Make make, Body body, ReplayReport* report,
                  RunOutcome* outcome) {
  Counts first;
  double traced_s = 0;
  for (int pass = 0; pass < 3; ++pass) {
    const bool traced = pass != 1;
    Tracer tracer(traced);
    double wall = 0;
    Counts counts;
    OnThread([&] {
      auto state = make();
      state->replayer.set_tracer(&tracer);
      const Clock::time_point t0 = Clock::now();
      body(state.get());
      wall = SecondsSince(t0);
      counts = state->Finish();
    });
    if (pass == 0) {
      first = counts;
      report->traced = std::move(tracer);
      report->counts = counts;
    } else if (!(counts == first)) {
      outcome->errors.push_back("replay counts differ between passes 0 and " +
                                std::to_string(pass));
    }
    if (traced) {
      traced_s += wall / 2;
    } else {
      report->untraced_s = wall;
    }
  }
  report->traced_s = traced_s;
}

/// Per-layer metrics of a traced replay.
void ReportReplay(const ReplayReport& report, MetricTable* m,
                  RunOutcome* outcome) {
  const auto durations = report.traced.Durations();
  const auto self = report.traced.SelfTimes();
  const Samples none;
  auto get = [&](const std::map<std::string, Samples>& by_name,
                 const char* name) -> const Samples& {
    auto it = by_name.find(name);
    return it == by_name.end() ? none : it->second;
  };
  auto p50 = [&](const char* name) { return get(durations, name).Median(); };
  const Counts& c = report.counts;
  const double reads = static_cast<double>(c.reads);
  m->Set("xml.parse_ms_p50", p50("xml.parse"));
  m->Set("qpt.plan_ms_p50", p50("qpt.plan"));
  m->Set("pdt.build_ms_p50", p50("pdt.build"));
  m->Set("pdt.build_share",
         RatioOrZero(get(durations, "pdt.build").Sum(),
                     get(durations, "read").Sum()));
  m->Set("pdt.ids_processed", RatioOrZero(c.ids, reads));
  m->Set("pdt.index_probes", RatioOrZero(c.probes, reads));
  m->Set("pdt.nodes_emitted", RatioOrZero(c.nodes, reads));
  m->Set("pdt.bytes", RatioOrZero(c.pdt_bytes, reads));
  m->Set("engine.evaluate_ms_p50", p50("engine.evaluate"));
  m->Set("engine.materialize_ms_p50", p50("engine.materialize"));
  m->Set("engine.store_fetches", RatioOrZero(c.store_fetches, reads));
  m->Set("engine.store_bytes", RatioOrZero(c.store_bytes, reads));
  m->Set("engine.examined_per_returned",
         RatioOrZero(c.view_results, static_cast<double>(c.hits)));
  m->Set("storage.apply_ms_p50", p50("storage.apply"));
  const uint64_t pool_lookups = c.pool_hits + c.pool_misses;
  m->Set("pagestore.pool.misses_per_query", RatioOrZero(c.pool_misses, reads));
  m->Set("pagestore.pool.hit_ratio",
         RatioOrZero(c.pool_hits, static_cast<double>(pool_lookups)));
  m->Set("pagestore.pool.evictions_per_query",
         RatioOrZero(c.pool_evictions, reads));
  m->Set("trace.overhead_ratio",
         RatioOrZero(report.traced_s, report.untraced_s));

  Samples gaps = report.traced.StageGaps();
  m->Set("trace.stage_gap_max", gaps.Max());
  if (gaps.Percentile(99) > kStageGapTolerance) {
    outcome->errors.push_back(
        "layer sum: p99 of |request - stages| / request is " +
        std::to_string(gaps.Percentile(99)) + " (tolerance " +
        std::to_string(kStageGapTolerance) + ")");
  }
  const double root_self = get(self, "read").Sum() + get(self, "write").Sum();
  const double root_wall =
      get(durations, "read").Sum() + get(durations, "write").Sum();
  m->Set("trace.unattributed_share", RatioOrZero(root_self, root_wall));
  std::printf("# trace self time per layer (ms, sum over %zu requests)\n",
              static_cast<size_t>(c.reads + c.writes));
  for (const auto& [name, samples] : self) {
    std::printf("#   %-28s self %10.3f  spans %6zu  p50 %8.4f\n",
                name.c_str(), samples.Sum(), samples.size(),
                get(durations, name.c_str()).Median());
  }
}

/// The service pass: the replay stream through QueryService itself.
struct ServicePass {
  Samples open_ms;
  Samples read_ms;
};

void ServiceRead(qv::service::QueryService* service, const ReadOp& op,
                 ServicePass* pass, std::vector<SearchHit>* hits_out) {
  const Clock::time_point t0 = Clock::now();
  auto cursor = Unwrap(service->OpenSearch(ToBatch(op)), "OpenSearch");
  const Clock::time_point t1 = Clock::now();
  std::vector<SearchHit> hits;
  const size_t page = op.page == 0 ? op.top_k : op.page;
  while (!cursor->Done()) {
    auto batch = Unwrap(cursor->FetchNext(page), "FetchNext");
    if (batch.empty()) break;
    for (SearchHit& hit : batch) hits.push_back(std::move(hit));
  }
  cursor.reset();
  const Clock::time_point t2 = Clock::now();
  pass->open_ms.Add(MsBetween(t0, t1));
  pass->read_ms.Add(MsBetween(t0, t2));
  if (hits_out != nullptr) *hits_out = std::move(hits);
}

void ReportServicePass(const ServicePass& pass,
                       const qv::service::QueryService::Stats& before,
                       const qv::service::QueryService::Stats& after,
                       MetricTable* m) {
  const double hits =
      static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  m->Set("service.open_ms_p50", pass.open_ms.Median());
  m->Set("service.read_ms_p50", pass.read_ms.Median());
  m->Set("service.pdt_cache.hit_ratio", RatioOrZero(hits, hits + misses));
  m->Set("service.pdt_cache.evictions",
         static_cast<double>(after.cache.evictions - before.cache.evictions));
}

/// Server-side numbers of a loopback pass on a fresh server.
void ReportLoopback(const qv::server::Server& server, const LoadResult& load,
                    double service_read_p50, MetricTable* m) {
  using qv::server::Opcode;
  const auto stats = server.SnapshotStats();
  const std::pair<const char*, Opcode> ops[] = {
      {"search", Opcode::kSearch},         {"open_cursor", Opcode::kOpenCursor},
      {"fetch_next", Opcode::kFetchNext},  {"close_cursor", Opcode::kCloseCursor},
      {"insert", Opcode::kInsert},         {"remove", Opcode::kRemove}};
  for (const auto& [name, op] : ops) {
    const auto& lat = stats.latency[static_cast<size_t>(op)];
    m->Set(std::string("server.handle_ms_p50.") + name,
           lat.count == 0 ? 0.0 : static_cast<double>(lat.p50_us) / 1000.0);
  }
  m->Set("server.overhead_ms_p50",
         Latencies(load.reads).Median() - service_read_p50);
  m->Set("server.shed_total", static_cast<double>(stats.shed));
  m->Set("loadgen.late_ms_p99", load.late_ms.Percentile(99));
  m->Set("loadgen.late_ms_max", load.late_ms.Max());
}

void CheckLoad(const LoadResult& load, const std::string& phase,
               RunOutcome* outcome) {
  outcome->attempted += load.attempted;
  outcome->failed += load.failed;
  for (const std::string& e : load.errors) {
    outcome->errors.push_back(phase + ": " + e);
  }
}

/// A traced run whose workload does not load the layers it was chosen
/// for fails rather than reporting numbers.
void ExpectLayer(bool ok, const std::string& what, RunOutcome* outcome) {
  if (!ok) outcome->errors.push_back("layer check failed: " + what);
}

/// The WAL metrics of a workload without a write path.
void SetNoWal(MetricTable* m) {
  for (const char* name :
       {"pagestore.wal.append_ms_p50", "pagestore.wal.append_ms_p99",
        "pagestore.wal.fsyncs_per_commit", "pagestore.wal.group_size_mean",
        "pagestore.wal.bytes_per_commit"}) {
    m->Set(name, 0);
  }
}

void SetSetupMetrics(const std::vector<SetupTimes>& times, MetricTable* m) {
  auto median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : times) v.push_back(t.*field);
    return MedianOf(v);
  };
  m->Set("setup_s", median(&SetupTimes::total_s));
  m->Set("workload.generate_s", median(&SetupTimes::generate_s));
  m->Set("index.build_s", median(&SetupTimes::index_s));
  m->Set("pagestore.pack_s", median(&SetupTimes::pack_s));
  m->Set("pagestore.open_s", median(&SetupTimes::open_s));
}

/// Sets prefix_p50_ms and prefix_p90_ms as the median over consecutive
/// slices of at least kSliceSamples requests (at most kMaxSlices) of each
/// slice's percentile, so a burst of host noise moves one slice rather
/// than the result; prefix_p99_ms is over the whole window, when it has
/// 10 samples beyond it. Records the sample and slice counts.
void SetLatency(const std::vector<TimedSample>& timed,
                const std::string& prefix, MetricTable* m, RunRecord* record) {
  Samples all;
  for (const TimedSample& t : timed) all.Add(t.ms);
  const size_t k = std::clamp<size_t>(timed.size() / kSliceSamples, 1,
                                      kMaxSlices);
  const std::vector<Samples> slices = Slices(timed, k);
  for (double p : {50.0, 90.0}) {
    std::vector<double> per_slice;
    for (const Samples& slice : slices) {
      if (slice.Supports(p)) per_slice.push_back(slice.Percentile(p));
    }
    if (per_slice.size() == slices.size()) {
      m->Set(prefix + "_p" + std::to_string(static_cast<int>(p)) + "_ms",
             MedianOf(per_slice));
    }
  }
  if (all.Supports(99)) m->Set(prefix + "_p99_ms", all.Percentile(99));
  record->Add(prefix + "_samples", static_cast<double>(all.size()));
  record->Add(prefix + "_slices", static_cast<double>(k));
}

/// Completed reads per second: the median over kMaxSlices time slices of
/// a closed-loop window.
double SlicedRate(const std::vector<TimedSample>& reads, double elapsed_s) {
  std::vector<double> counts(kMaxSlices, 0);
  for (const TimedSample& t : reads) {
    const size_t i = static_cast<size_t>(t.at_s / elapsed_s * kMaxSlices);
    if (i < kMaxSlices) counts[i] += 1;
  }
  for (double& c : counts) c /= elapsed_s / kMaxSlices;
  return MedianOf(counts);
}

/// Runs `setup` kSetupRepeats times, keeping the last fixture.
template <typename Fixture, typename Setup>
std::unique_ptr<Fixture> SetupRepeated(Setup setup,
                                       std::vector<SetupTimes>* times) {
  std::unique_ptr<Fixture> fixture;
  for (int i = 0; i < kSetupRepeats; ++i) {
    fixture.reset();
    fixture = setup();
    times->push_back(fixture->times);
  }
  return fixture;
}

// ---------------------------------------------------------------------------
// cold_inex_paged
// ---------------------------------------------------------------------------

struct ColdFixture {
  std::shared_ptr<qv::xml::Database> db;
  std::unique_ptr<qv::index::DatabaseIndexes> indexes;
  std::string pack_path;
  std::shared_ptr<qv::pagestore::PackedDb> packed;
  std::unique_ptr<qv::storage::DocumentStore> store;
  Served served;
  SetupTimes times;
};

std::unique_ptr<ColdFixture> SetupCold(const RunOptions& opt,
                                       const std::vector<NamedView>& views) {
  auto f = std::make_unique<ColdFixture>();
  const Clock::time_point start = Clock::now();
  qv::workload::InexOptions inex;
  inex.target_bytes = kInexBytes;
  inex.seed = Mix(opt.seed, 10);
  f->db = qv::workload::GenerateInexDatabase(inex);
  f->times.generate_s = SecondsSince(start);
  Clock::time_point t = Clock::now();
  f->indexes = qv::index::BuildDatabaseIndexes(*f->db);
  f->times.index_s = SecondsSince(t);
  t = Clock::now();
  f->pack_path = opt.workdir + "/inex.qvpack";
  Require(qv::pagestore::PackDatabase(*f->db, *f->indexes, f->pack_path),
          "PackDatabase");
  f->times.pack_s = SecondsSince(t);
  t = Clock::now();
  qv::pagestore::BufferPoolOptions pool;
  pool.frames = kPoolFrames;
  f->packed = Unwrap(qv::pagestore::PackedDb::Open(f->pack_path, pool),
                     "PackedDb::Open");
  f->store = std::make_unique<qv::storage::DocumentStore>(f->packed);
  f->times.open_s = SecondsSince(t);
  f->served.service = std::make_unique<qv::service::QueryService>(
      nullptr, f->packed.get(), f->store.get(), ServiceOptions());
  f->served.service->AttachBufferPool(&f->packed->pool());
  for (const NamedView& v : views) {
    Require(f->served.service->RegisterView(v.name, v.text), "RegisterView");
  }
  f->served.server = StartServer(f->served.service.get());
  // Warm-up: a few queries from their own stream, so code paths and the
  // listener are live without pre-loading the timed stream's plans.
  std::mt19937_64 warm_rng(Mix(opt.seed, 12));
  std::vector<ReadOp> warm = ColdStream(warm_rng, views, 3);
  std::vector<const ReadOp*> warm_ptrs;
  for (const ReadOp& op : warm) warm_ptrs.push_back(&op);
  WarmOverWire(f->served.port(), warm_ptrs);
  f->times.total_s = SecondsSince(start);
  return f;
}

/// Oracle: `hits` must equal ViewSearchEngine::Execute over the in-memory
/// indexes of the same corpus.
std::string ColdOracle(const ColdFixture& f,
                       const qv::storage::DocumentStore& mem_store,
                       const std::map<std::string, std::string>& view_text,
                       const ReadOp& op, const std::vector<SearchHit>& hits) {
  qv::engine::ViewSearchEngine engine(f.db.get(), f.indexes.get(), &mem_store);
  qv::engine::SearchRequest request;
  request.view = view_text.at(op.view);
  request.keywords = op.keywords;
  request.options.top_k = op.top_k;
  request.options.conjunctive = op.conjunctive;
  auto want = Unwrap(engine.Execute(request), "in-memory Execute");
  return CompareHits(hits, want.hits);
}

void RunCold(const RunOptions& opt, RunOutcome* out) {
  MetricTable& m = out->metrics;
  const std::vector<NamedView> views = InexViews();
  std::map<std::string, std::string> view_text;
  for (const NamedView& v : views) view_text[v.name] = v.text;
  std::mt19937_64 rng(Mix(opt.seed, 11));
  const std::vector<ReadOp> stream = ColdStream(rng, views, kColdStream);
  std::vector<bool> sampled(stream.size());
  for (size_t i = 0; i < stream.size(); ++i) {
    sampled[i] = rng() % kColdSampleEvery == 0;
  }

  std::vector<SetupTimes> times;
  auto f = SetupRepeated<ColdFixture>([&] { return SetupCold(opt, views); },
                                      &times);
  SetSetupMetrics(times, &m);
  const uint64_t xml_bytes = SerializedBytes(*f->db);
  const uint64_t pack_bytes = FileBytes(f->pack_path);
  m.Set("space_amp", RatioOrZero(pack_bytes, xml_bytes));
  out->record.Add("corpus_xml_bytes", static_cast<double>(xml_bytes));
  out->record.Add("pack_pages",
                  static_cast<double>(pack_bytes / qv::pagestore::kPageSize));
  out->record.Add("pool_frames", static_cast<double>(kPoolFrames));
  out->record.Add("pdt_cache_capacity", static_cast<double>(kCacheCapacity));
  out->record.Add("server_worker_threads", static_cast<double>(kServerWorkers));
  out->record.Add("client_connections", 1.0);
  out->record.Add("load", "closed loop, 1 connection");
  out->record.Add("pack_filesystem", FilesystemType(opt.workdir));

  std::vector<const ReadOp*> ops;
  for (const ReadOp& op : stream) ops.push_back(&op);
  const qv::storage::DocumentStore mem_store(*f->db);

  if (!opt.trace) {
    ::qv::Mutex mu;
    std::map<const ReadOp*, std::vector<SearchHit>> recorded;
    ReadChecker record = [&](const ReadOp& op,
                             const std::vector<SearchHit>& hits) {
      const size_t i = &op - stream.data();
      if (sampled[i]) {
        ::qv::MutexLock lock(mu);
        recorded[&op] = hits;
      }
      return std::string();
    };
    const auto before = f->served.service->stats();
    LoadResult load = RunClosedLoop(f->served.port(), {ops}, opt.seconds, record);
    const auto after = f->served.service->stats();
    CheckLoad(load, "timed loop", out);
    for (const auto& [op, hits] : recorded) {
      std::string mismatch = ColdOracle(*f, mem_store, view_text, *op, hits);
      if (!mismatch.empty()) {
        ++out->failed;
        out->errors.push_back("cold oracle: " + mismatch);
      }
    }
    out->record.Add("oracle_samples", static_cast<double>(recorded.size()));
    const double hits =
        static_cast<double>(after.cache.hits - before.cache.hits);
    const double misses =
        static_cast<double>(after.cache.misses - before.cache.misses);
    const double hit_ratio = RatioOrZero(hits, hits + misses);
    out->record.Add("timed_pdt_cache_hit_ratio", hit_ratio);
    if (hit_ratio >= 0.1) {
      out->errors.push_back("cache state: cold hit ratio " +
                            std::to_string(hit_ratio) + " >= 0.1");
    }
    SetLatency(load.reads, "query", &m, &out->record);
    m.Set("query_qps", SlicedRate(load.reads, load.elapsed_s));
    m.Set("error_rate",
          RatioOrZero(out->failed, static_cast<double>(out->attempted)));
    m.Set("rss_mb", PeakRssMb());
    return;
  }

  // Traced run. Loopback pass on a fresh server, then the service pass,
  // both over the stream's first kColdReplay queries with a cleared cache.
  std::vector<const ReadOp*> prefix(ops.begin(), ops.begin() + kColdReplay);
  std::map<const ReadOp*, std::vector<SearchHit>> loopback_hits;
  ServicePass pass;
  {
    f->served.service->ClearCache();
    auto server = StartServer(f->served.service.get());
    ReadChecker keep = [&](const ReadOp& op,
                           const std::vector<SearchHit>& hits) {
      loopback_hits[&op] = hits;  // one connection: no concurrent calls
      return std::string();
    };
    LoadResult load = RunClosedLoop(server->port(), {prefix}, 1e9, keep,
                                    kColdReplay);
    CheckLoad(load, "loopback pass", out);
    f->served.service->ClearCache();
    const auto before = f->served.service->stats();
    OnThread([&] {
      for (const ReadOp* op : prefix) {
        ServiceRead(f->served.service.get(), *op, &pass, nullptr);
      }
    });
    ReportServicePass(pass, before, f->served.service->stats(), &m);
    ReportLoopback(*server, load, pass.read_ms.Median(), &m);
  }

  // Replays: each on a freshly opened pack (empty pool) and empty cache.
  struct State {
    explicit State(std::shared_ptr<qv::pagestore::PackedDb> p)
        : packed(std::move(p)),
          store(std::make_unique<qv::storage::DocumentStore>(packed)),
          replayer(nullptr, packed.get(), store.get(), ""),
          pool_before(packed->pool().stats()) {}
    std::shared_ptr<qv::pagestore::PackedDb> packed;
    std::unique_ptr<qv::storage::DocumentStore> store;
    Replayer replayer;
    qv::pagestore::BufferPoolStats pool_before;
    Counts Finish() {
      Counts c = replayer.counts();
      const auto pool = packed->pool().stats();
      c.pool_hits = pool.hits - pool_before.hits;
      c.pool_misses = pool.misses - pool_before.misses;
      c.pool_evictions = pool.evictions - pool_before.evictions;
      return c;
    }
  };
  auto make = [&] {
    qv::pagestore::BufferPoolOptions pool;
    pool.frames = kPoolFrames;
    auto state = std::make_unique<State>(Unwrap(
        qv::pagestore::PackedDb::Open(f->pack_path, pool), "PackedDb::Open"));
    for (const NamedView& v : views) state->replayer.AddView(v.name, v.text);
    return state;
  };
  ReplayReport report;
  std::map<const ReadOp*, std::vector<SearchHit>> first_hits;
  ReplayThrice(
      make,
      [&](State* s) {
        for (const ReadOp* op : prefix) {
          std::vector<SearchHit> hits = s->replayer.Read(*op);
          auto [it, fresh] = first_hits.emplace(op, hits);
          if (!fresh && !CompareHits(hits, it->second).empty()) {
            out->errors.push_back("replay answers differ between passes");
          }
        }
      },
      &report, out);
  // The replay answers the loopback answers, and matches the in-memory
  // oracle on the sampled queries.
  for (size_t i = 0; i < prefix.size(); ++i) {
    const std::vector<SearchHit>& hits = first_hits[prefix[i]];
    std::string mismatch = CompareHits(loopback_hits[prefix[i]], hits);
    if (mismatch.empty() && sampled[i]) {
      mismatch = ColdOracle(*f, mem_store, view_text, *prefix[i], hits);
    }
    if (!mismatch.empty()) {
      out->errors.push_back("cold replay oracle: " + mismatch);
    }
  }
  ReportReplay(report, &m, out);
  SetNoWal(&m);
  ExpectLayer(m.Get("pdt.build_share") > 0.5, "cold pdt.build_share > 0.5",
              out);
  ExpectLayer(m.Get("service.pdt_cache.hit_ratio") < 0.1,
              "cold service.pdt_cache.hit_ratio < 0.1", out);
}

// ---------------------------------------------------------------------------
// hot_bookrev_serve
// ---------------------------------------------------------------------------

qv::workload::BookRevOptions BookRevOpts(uint64_t seed) {
  qv::workload::BookRevOptions opts;
  opts.num_books = kBooks;
  opts.max_reviews_per_book = kReviewsPerBook;
  opts.seed = Mix(seed, 20);
  return opts;
}

struct HotFixture {
  std::shared_ptr<qv::xml::Database> db;
  std::unique_ptr<qv::index::DatabaseIndexes> indexes;
  std::unique_ptr<qv::storage::DocumentStore> store;
  Served served;
  SetupTimes times;
};

std::unique_ptr<HotFixture> SetupHot(const RunOptions& opt,
                                     const ReadMix& mix) {
  auto f = std::make_unique<HotFixture>();
  const Clock::time_point start = Clock::now();
  f->db = qv::workload::GenerateBookRevDatabase(BookRevOpts(opt.seed));
  f->times.generate_s = SecondsSince(start);
  Clock::time_point t = Clock::now();
  f->indexes = qv::index::BuildDatabaseIndexes(*f->db);
  f->store = std::make_unique<qv::storage::DocumentStore>(*f->db);
  f->times.index_s = SecondsSince(t);
  f->served.service = std::make_unique<qv::service::QueryService>(
      f->db.get(), f->indexes.get(), f->store.get(), ServiceOptions());
  Require(f->served.service->RegisterView("bookrev",
                                          qv::workload::BookRevView()),
          "RegisterView");
  f->served.server = StartServer(f->served.service.get());
  // Warm-up: every op of the mix — each signature with the connective and
  // top_k the stream uses — so the timed phases find every plan cached.
  WarmOverWire(f->served.port(), mix.distinct());
  f->times.total_s = SecondsSince(start);
  return f;
}

double CacheHitRatio(const qv::service::QueryService::Stats& before,
                     const qv::service::QueryService::Stats& after) {
  const double hits = static_cast<double>(after.cache.hits - before.cache.hits);
  const double misses =
      static_cast<double>(after.cache.misses - before.cache.misses);
  return RatioOrZero(hits, hits + misses);
}

void RecordBookRev(const qv::xml::Database& db, RunOutcome* out) {
  out->record.Add("corpus_xml_bytes", static_cast<double>(SerializedBytes(db)));
  out->record.Add("pdt_cache_capacity", static_cast<double>(kCacheCapacity));
  out->record.Add("server_worker_threads", static_cast<double>(kServerWorkers));
}

void RunHot(const RunOptions& opt, RunOutcome* out) {
  MetricTable& m = out->metrics;
  const ReadMix mix;
  std::mt19937_64 rng(Mix(opt.seed, 21));
  const double open_s = opt.seconds * kHotOpenShare;
  const double closed_s = opt.seconds - open_s;
  const auto open_schedule =
      ReadSchedule(mix, rng, kHotRate, kOpenLoopConnections, open_s);
  std::vector<std::vector<const ReadOp*>> closed_ops(kHotClosedConnections);
  for (auto& list : closed_ops) {
    for (int i = 0; i < 4000; ++i) list.push_back(mix.Draw(rng));
  }

  std::vector<SetupTimes> times;
  auto f = SetupRepeated<HotFixture>([&] { return SetupHot(opt, mix); },
                                     &times);
  SetSetupMetrics(times, &m);
  const Expected expected = ExpectedAnswers(f->served.service.get(),
                                            mix.distinct());
  RecordBookRev(*f->db, out);
  out->record.Add("open_loop_connections",
                  static_cast<double>(kOpenLoopConnections));
  out->record.Add("closed_loop_connections",
                  static_cast<double>(kHotClosedConnections));
  out->record.Add("offered_rate_qps", kHotRate);
  out->record.Add("load", "open loop at offered_rate_qps for 60% of the "
                          "run, then closed loop");
  // Cursor pages concatenated must equal the one-shot top-k: the oracle
  // answer of a cursor op is SearchOne with the same top_k.
  const ReadChecker check = CheckAgainst(&expected);

  if (!opt.trace) {
    auto s0 = f->served.service->stats();
    LoadResult open = RunOpenLoop(f->served.port(), open_schedule, open_s,
                                  check, WriteAck());
    auto s1 = f->served.service->stats();
    LoadResult closed =
        RunClosedLoop(f->served.port(), closed_ops, closed_s, check);
    auto s2 = f->served.service->stats();
    CheckLoad(open, "open loop", out);
    CheckLoad(closed, "closed loop", out);
    for (double ratio : {CacheHitRatio(s0, s1), CacheHitRatio(s1, s2)}) {
      out->record.Add("timed_pdt_cache_hit_ratio", ratio);
      if (ratio < 0.99) {
        out->errors.push_back("cache state: hot hit ratio " +
                              std::to_string(ratio) + " < 0.99");
      }
    }
    SetLatency(open.reads, "query", &m, &out->record);
    out->record.Add("loadgen_late_ms_p99", open.late_ms.Percentile(99));
    const double capacity = SlicedRate(closed.reads, closed.elapsed_s);
    m.Set("capacity_qps", capacity);
    m.Set("query_qps", capacity);
    m.Set("error_rate",
          RatioOrZero(out->failed, static_cast<double>(out->attempted)));
    m.Set("rss_mb", PeakRssMb());
    return;
  }

  // Traced run: loopback pass (open loop, fresh server), service pass and
  // replays over the open-loop stream's first kHotReplay reads.
  std::vector<const ReadOp*> prefix;
  for (const Request& req : Merged(open_schedule, 1e9)) {
    if (prefix.size() < kHotReplay) prefix.push_back(req.read);
  }
  ServicePass pass;
  {
    const auto before = f->served.service->stats();
    OnThread([&] {
      for (const ReadOp* op : prefix) {
        std::vector<SearchHit> hits;
        ServiceRead(f->served.service.get(), *op, &pass, &hits);
        std::string mismatch = check(*op, hits);
        if (!mismatch.empty()) {
          out->errors.push_back("service pass: " + mismatch);
        }
      }
    });
    ReportServicePass(pass, before, f->served.service->stats(), &m);
    auto server = StartServer(f->served.service.get());
    LoadResult load =
        RunOpenLoop(server->port(), open_schedule,
                    std::min(open_s, kTracedLoopbackSeconds), check,
                    WriteAck());
    CheckLoad(load, "loopback pass", out);
    ReportLoopback(*server, load, pass.read_ms.Median(), &m);
  }

  struct State {
    explicit State(const HotFixture& f)
        : replayer(f.db.get(), f.indexes.get(), f.store.get(),
                   qv::workload::BookRevView()) {}
    Replayer replayer;
    Counts Finish() { return replayer.counts(); }
  };
  auto make = [&] {
    auto state = std::make_unique<State>(*f);
    for (const ReadOp* op : mix.distinct()) state->replayer.Read(*op);
    state->replayer.reset_counts();
    return state;
  };
  ReplayReport report;
  ReplayThrice(
      make,
      [&](State* s) {
        for (const ReadOp* op : prefix) {
          std::string mismatch = check(*op, s->replayer.Read(*op));
          if (!mismatch.empty()) out->errors.push_back("replay: " + mismatch);
        }
      },
      &report, out);
  ReportReplay(report, &m, out);
  SetNoWal(&m);
  ExpectLayer(m.Get("service.pdt_cache.hit_ratio") >= 0.99,
              "hot service.pdt_cache.hit_ratio >= 0.99", out);
  ExpectLayer(report.counts.builds == 0, "hot replay builds no PDT", out);
}

// ---------------------------------------------------------------------------
// live_ingest_mixed
// ---------------------------------------------------------------------------

struct LiveFixture {
  std::unique_ptr<qv::storage::LiveDatabase> live;
  std::string wal_path;
  Served served;
  SetupTimes times;
};

std::unique_ptr<LiveFixture> SetupLive(const RunOptions& opt,
                                       const ReadMix& mix,
                                       const std::string& wal_path) {
  std::remove(wal_path.c_str());
  auto f = std::make_unique<LiveFixture>();
  f->wal_path = wal_path;
  const Clock::time_point start = Clock::now();
  auto db = qv::workload::GenerateBookRevDatabase(BookRevOpts(opt.seed));
  f->times.generate_s = SecondsSince(start);
  Clock::time_point t = Clock::now();
  f->live = std::make_unique<qv::storage::LiveDatabase>(std::move(db));
  f->times.index_s = SecondsSince(t);
  t = Clock::now();
  qv::pagestore::WalOptions wal;
  wal.group_commit = true;
  wal.sync = true;
  Require(f->live->OpenWal(wal_path, wal), "OpenWal");
  f->times.open_s = SecondsSince(t);
  f->served.service = std::make_unique<qv::service::QueryService>(
      f->live.get(), ServiceOptions());
  Require(f->served.service->RegisterView("bookrev",
                                          qv::workload::BookRevView()),
          "RegisterView");
  f->served.server = StartServer(f->served.service.get());
  WarmOverWire(f->served.port(), mix.distinct());
  f->times.total_s = SecondsSince(start);
  return f;
}

std::string BooksXml(uint64_t seed) {
  auto db = qv::workload::GenerateBookRevDatabase(BookRevOpts(seed));
  return qv::xml::Serialize(*db->GetDocument("books.xml"));
}

std::vector<std::string> SortedNames(qv::storage::LiveDatabase* live) {
  ::qv::ReaderLock lock(live->mu());
  std::vector<std::string> names = live->document_names();
  std::sort(names.begin(), names.end());
  return names;
}

void RunLive(const RunOptions& opt, RunOutcome* out) {
  MetricTable& m = out->metrics;
  const ReadMix mix;
  std::mt19937_64 rng(Mix(opt.seed, 31));
  const std::string books_xml = BooksXml(opt.seed);
  const size_t write_count =
      static_cast<size_t>(std::ceil(opt.seconds * kLiveWriteRate)) + 1;
  const std::vector<WriteOp> writes = WriteStream(rng, write_count, books_xml);
  auto schedules =
      ReadSchedule(mix, rng, kLiveReadRate, kLiveReaders, opt.seconds);
  schedules.push_back(WriteSchedule(writes, kLiveWriteRate, opt.seconds)[0]);
  const std::string wal_path = opt.workdir + "/live.wal";

  std::vector<SetupTimes> times;
  auto f = SetupRepeated<LiveFixture>(
      [&] { return SetupLive(opt, mix, wal_path); }, &times);
  SetSetupMetrics(times, &m);
  const Expected expected =
      ExpectedAnswers(f->served.service.get(), mix.distinct());
  const ReadChecker check = CheckAgainst(&expected);
  {
    ::qv::ReaderLock lock(f->live->mu());
    RecordBookRev(*f->live->database(), out);
  }
  out->record.Add("client_connections", kLiveReaders + 1.0);
  out->record.Add("offered_read_rate_qps", kLiveReadRate);
  out->record.Add("offered_write_rate_per_s", kLiveWriteRate);
  out->record.Add("load", "open loop: reader connections plus 1 writer");
  out->record.Add("wal_flush_policy", "fdatasync per commit group, group "
                                      "commit on");
  out->record.Add("wal_filesystem", FilesystemType(opt.workdir));

  if (!opt.trace) {
    std::vector<const WriteOp*> acked;  // only the writer thread appends
    const uint64_t wal_start = FileBytes(wal_path);
    const auto before = f->served.service->stats();
    LoadResult load =
        RunOpenLoop(f->served.port(), schedules, opt.seconds, check,
                    [&](const WriteOp& op) { acked.push_back(&op); });
    const auto after = f->served.service->stats();
    CheckLoad(load, "open loop", out);
    out->record.Add("timed_pdt_cache_hit_ratio", CacheHitRatio(before, after));
    SetLatency(load.reads, "query", &m, &out->record);
    SetLatency(load.writes, "commit", &m, &out->record);
    out->record.Add("loadgen_late_ms_p99", load.late_ms.Percentile(99));
    m.Set("query_qps", static_cast<double>(load.reads.size()) / load.elapsed_s);
    uint64_t payload = 0;
    for (const WriteOp* op : acked) payload += op->name.size() + op->xml.size();
    m.Set("space_amp",
          RatioOrZero(FileBytes(wal_path) - wal_start, payload));

    // Durability oracle: reopen the log into a fresh database; it must
    // hold exactly the acknowledged history's documents and answer a
    // sample query as the live database did.
    std::set<std::string> want_names = {"books.xml", "reviews.xml"};
    for (const WriteOp* op : acked) {
      if (op->remove) {
        want_names.erase(op->name);
      } else {
        want_names.insert(op->name);
      }
    }
    const ReadOp* sample = mix.Draw(rng);
    auto live_answer =
        Unwrap(f->served.service->SearchOne(ToBatch(*sample)), "SearchOne");
    m.Set("rss_mb", PeakRssMb());
    f.reset();  // stops the server, closes the WAL
    qv::storage::LiveDatabase reopened(
        qv::workload::GenerateBookRevDatabase(BookRevOpts(opt.seed)));
    Require(reopened.OpenWal(wal_path), "reopen WAL");
    std::vector<std::string> got = SortedNames(&reopened);
    if (got != std::vector<std::string>(want_names.begin(), want_names.end())) {
      ++out->failed;
      out->errors.push_back("durability oracle: reopened document set has " +
                            std::to_string(got.size()) + " documents, the "
                            "acknowledged history " +
                            std::to_string(want_names.size()));
    }
    qv::service::QueryService service(&reopened, ServiceOptions());
    Require(service.RegisterView("bookrev", qv::workload::BookRevView()),
            "RegisterView");
    auto reopened_answer =
        Unwrap(service.SearchOne(ToBatch(*sample)), "SearchOne");
    std::string mismatch = CompareHits(reopened_answer.hits, live_answer.hits);
    if (!mismatch.empty()) {
      ++out->failed;
      out->errors.push_back("durability oracle: " + mismatch);
    }
    out->record.Add("acked_writes", static_cast<double>(acked.size()));
    m.Set("error_rate",
          RatioOrZero(out->failed, static_cast<double>(out->attempted)));
    return;
  }

  // Traced run. Loopback pass on the set-up fixture (fresh server).
  auto loop_server = StartServer(f->served.service.get());
  const LoadResult loopback = RunOpenLoop(
      loop_server->port(), schedules,
      std::min(opt.seconds, kTracedLoopbackSeconds), check, WriteAck());
  CheckLoad(loopback, "loopback pass", out);
  const std::vector<Request> prefix = Merged(schedules, kLiveReplaySeconds);

  // Service pass on a fresh fixture: reads through OpenSearch, writes
  // through the service's durable mutation path.
  ServicePass pass;
  {
    auto g = SetupLive(opt, mix, opt.workdir + "/service.wal");
    const auto before = g->served.service->stats();
    OnThread([&] {
      for (const Request& req : prefix) {
        if (req.read != nullptr) {
          std::vector<SearchHit> hits;
          ServiceRead(g->served.service.get(), *req.read, &pass, &hits);
          std::string mismatch = check(*req.read, hits);
          if (!mismatch.empty()) {
            out->errors.push_back("service pass: " + mismatch);
          }
        } else {
          const WriteOp& w = *req.write;
          Require(w.remove ? g->served.service->RemoveDocument(w.name)
                           : g->served.service->InsertDocument(w.name, w.xml),
                  "service write");
        }
      }
    });
    ReportServicePass(pass, before, g->served.service->stats(), &m);
    const qv::pagestore::Wal* wal = g->live->wal();
    const double appended = static_cast<double>(wal->appended_records());
    m.Set("pagestore.wal.fsyncs_per_commit",
          RatioOrZero(wal->sync_calls(), appended));
    m.Set("pagestore.wal.group_size_mean",
          RatioOrZero(appended, wal->commit_batches()));
    m.Set("pagestore.wal.bytes_per_commit",
          RatioOrZero(FileBytes(g->wal_path) - 8.0, appended));
  }
  ReportLoopback(*loop_server, loopback, pass.read_ms.Median(), &m);
  loop_server.reset();

  // WAL-only pass: the write payloads appended to a fresh log in the same
  // directory, enough of them for a p99 with 10 samples beyond it.
  {
    const std::string path = opt.workdir + "/append.wal";
    std::remove(path.c_str());
    auto wal = Unwrap(qv::pagestore::Wal::Open(path), "Wal::Open");
    Samples append_ms;
    for (size_t i = 0; append_ms.size() < 1100; ++i) {
      const std::string payload = EncodeWrite(writes[i % writes.size()]);
      const Clock::time_point t0 = Clock::now();
      Unwrap(wal->Append(payload), "WAL append");
      append_ms.Add(MsBetween(t0, Clock::now()));
    }
    m.Set("pagestore.wal.append_ms_p50", append_ms.Median());
    m.Set("pagestore.wal.append_ms_p99", append_ms.Percentile(99));
    wal.reset();
    std::remove(path.c_str());
  }

  // Replays: a fresh database and a fresh log each time.
  struct State {
    State(const std::string& path, uint64_t seed)
        : live(std::make_unique<qv::storage::LiveDatabase>(
              qv::workload::GenerateBookRevDatabase(BookRevOpts(seed)))),
          wal(Unwrap(qv::pagestore::Wal::Open(path), "Wal::Open")),
          replayer(live.get(), wal.get(), qv::workload::BookRevView()) {}
    std::unique_ptr<qv::storage::LiveDatabase> live;
    std::unique_ptr<qv::pagestore::Wal> wal;
    Replayer replayer;
    Counts Finish() {
      Counts c = replayer.counts();
      c.wal_appends = wal->appended_records();
      c.wal_syncs = wal->sync_calls();
      return c;
    }
  };
  int replay_index = 0;
  auto make = [&] {
    const std::string path =
        opt.workdir + "/replay" + std::to_string(replay_index++) + ".wal";
    std::remove(path.c_str());
    auto state = std::make_unique<State>(path, opt.seed);
    for (const ReadOp* op : mix.distinct()) state->replayer.Read(*op);
    state->replayer.reset_counts();
    return state;
  };
  ReplayReport report;
  ReplayThrice(
      make,
      [&](State* s) {
        for (const Request& req : prefix) {
          if (req.read != nullptr) {
            std::string mismatch = check(*req.read, s->replayer.Read(*req.read));
            if (!mismatch.empty()) out->errors.push_back("replay: " + mismatch);
          } else {
            s->replayer.Write(*req.write);
          }
        }
      },
      &report, out);
  ExpectLayer(report.counts.wal_syncs == report.counts.wal_appends,
              "one-writer replay: one fsync per commit", out);
  ReportReplay(report, &m, out);
  ExpectLayer(report.counts.wal_appends > 0 &&
                  m.Get("pagestore.wal.append_ms_p50") > 0 &&
                  m.Get("storage.apply_ms_p50") > 0,
              "live write path (WAL appends and applies) measured", out);
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "cold_inex_paged", "hot_bookrev_serve", "live_ingest_mixed"};
  return names;
}

RunOutcome RunWorkload(const RunOptions& options) {
  RunOutcome out;
  if (options.workload == "cold_inex_paged") {
    RunCold(options, &out);
  } else if (options.workload == "hot_bookrev_serve") {
    RunHot(options, &out);
  } else if (options.workload == "live_ingest_mixed") {
    RunLive(options, &out);
  } else {
    Fatal("unknown workload: " + options.workload);
  }
  return out;
}

}  // namespace qvbench

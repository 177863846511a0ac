#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace quickview::server {
namespace {

using Clock = std::chrono::steady_clock;

std::string ErrnoMessage(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

/// Blocking full-buffer send. MSG_NOSIGNAL: a dead peer is a false
/// return, never a SIGPIPE.
bool SendAll(int fd, std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    ssize_t n = ::send(fd, data.data() + sent, data.size() - sent,
                       MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

/// Slow-query-log description of a Search/OpenCursor request.
std::string DescribeSearch(const char* verb, const SearchRpcRequest& req) {
  std::string out(verb);
  out += " view=";
  out += req.view;
  out += " keywords=";
  for (size_t i = 0; i < req.keywords.size(); ++i) {
    if (i > 0) out += ',';
    out += req.keywords[i];
  }
  return out;
}

}  // namespace

Server::Connection::~Connection() {
  // The fd closes exactly once, after the last holder (reader thread,
  // worker task, accept/stop path) dropped its shared_ptr — so a late
  // worker can never write into a recycled descriptor.
  if (fd >= 0) ::close(fd);
}

Server::Server(service::QueryService* service, const ServerOptions& options)
    : service_(service),
      options_(options),
      slow_log_(obs::SlowQueryLog::Options{options.slow_query_threshold_us,
                                           options.slow_query_capacity}),
      pool_(options.worker_threads > 0
                ? options.worker_threads
                : static_cast<int>(std::thread::hardware_concurrency())) {
  RegisterServerMetrics();
  // The service stack (cache, engine pool, buffer pools, live database)
  // registers unlabeled; the RPC pool below distinguishes itself with a
  // `pool` label so two ThreadPools share one metric name.
  (void)service_->RegisterMetrics(&registry_);
  (void)pool_.RegisterMetrics(&registry_, {{"pool", "rpc"}});
}

void Server::RegisterServerMetrics() {
  using Kind = obs::MetricsRegistry::InstrumentKind;
  auto read = [](const std::atomic<uint64_t>* value) {
    return [value]() -> int64_t {
      return static_cast<int64_t>(value->load(std::memory_order_relaxed));
    };
  };
  struct Series {
    const char* name;
    Kind kind;
    const std::atomic<uint64_t>* value;
  };
  const Series series[] = {
      {"qv_server_admitted_total", Kind::kCounter, &admitted_},
      {"qv_server_shed_total", Kind::kCounter, &shed_},
      {"qv_server_deadline_rejected_total", Kind::kCounter,
       &deadline_rejected_},
      {"qv_server_connections_accepted_total", Kind::kCounter,
       &conns_accepted_},
      {"qv_server_connections_rejected_total", Kind::kCounter,
       &conns_rejected_},
      {"qv_server_frames_received_total", Kind::kCounter, &frames_in_},
      {"qv_server_frames_sent_total", Kind::kCounter, &frames_out_},
      {"qv_server_protocol_errors_total", Kind::kCounter, &protocol_errors_},
      {"qv_server_queued", Kind::kGauge, &queued_},
      {"qv_server_inflight", Kind::kGauge, &inflight_},
      {"qv_server_open_cursors", Kind::kGauge, &open_cursors_},
      {"qv_server_connections_open", Kind::kGauge, &conns_open_},
  };
  for (const Series& s : series) {
    (void)registry_.RegisterCallback(s.name, {}, s.kind, read(s.value));
  }
  for (uint8_t op = kMinOpcode; op <= kMaxOpcode; ++op) {
    obs::LabelSet labels{{"opcode", OpcodeName(static_cast<Opcode>(op))}};
    (void)registry_.RegisterHistogram("qv_server_latency_us", labels,
                                      &latency_[op]);
    (void)registry_.RegisterCallback("qv_server_opcode_shed_total", labels,
                                     Kind::kCounter, read(&op_shed_[op]));
    (void)registry_.RegisterCallback("qv_server_opcode_deadline_rejected_total",
                                     labels, Kind::kCounter,
                                     read(&op_deadline_rejected_[op]));
  }
  (void)registry_.RegisterCallback(
      "qv_server_slow_log_considered_total", {}, Kind::kCounter,
      [this]() -> int64_t {
        return static_cast<int64_t>(slow_log_.considered());
      });
}

Server::~Server() { Stop(); }

Status Server::Start() {
  if (listen_fd_ >= 0) {
    return Status::InvalidArgument("server already started");
  }
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoMessage("socket"));
  int one = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen host: " + options_.host);
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status status = Status::Internal(ErrnoMessage("bind"));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 128) != 0) {
    Status status = Status::Internal(ErrnoMessage("listen"));
    ::close(fd);
    return status;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    Status status = Status::Internal(ErrnoMessage("getsockname"));
    ::close(fd);
    return status;
  }
  port_.store(ntohs(bound.sin_port), std::memory_order_release);
  listen_fd_ = fd;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void Server::Stop() {
  stopping_.store(true, std::memory_order_release);
  // Unblock accept() and join the accept thread before closing the fd,
  // so accept never reads a recycled descriptor.
  if (listen_fd_ >= 0) (void)::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Unblock every reader's recv. shutdown (not close): the shared_ptr
  // snapshot keeps each fd valid while we poke it.
  std::vector<std::shared_ptr<Connection>> snapshot;
  {
    qv::MutexLock lock(conns_mu_);
    for (auto& [id, conn] : conns_) snapshot.push_back(conn);
  }
  for (const std::shared_ptr<Connection>& conn : snapshot) {
    conn->closing.store(true, std::memory_order_release);
    (void)::shutdown(conn->fd, SHUT_RDWR);
  }
  snapshot.clear();
  // Readers remove themselves from conns_ and mark their thread finished
  // on the way out; with the accept thread gone no new ones appear.
  for (;;) {
    std::map<uint64_t, std::thread> to_join;
    {
      qv::MutexLock lock(conns_mu_);
      to_join.swap(readers_);
      finished_readers_.clear();
    }
    if (to_join.empty()) break;
    for (auto& [id, thread] : to_join) thread.join();
  }
  pool_.Drain();
}

void Server::AcceptLoop() {
  for (;;) {
    int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (stopping_.load(std::memory_order_acquire)) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listener gone
    }
    if (stopping_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    ReapFinishedReaders();
    conns_accepted_.fetch_add(1, std::memory_order_relaxed);
    if (conns_open_.load(std::memory_order_acquire) >=
        options_.max_connections) {
      // Typed rejection: one unsolicited error frame (request id 0), then
      // close. Clients treat it as "server full, back off".
      conns_rejected_.fetch_add(1, std::memory_order_relaxed);
      Frame reject;
      reject.opcode = Opcode::kStats;
      reject.flags = kFlagError;
      reject.request_id = 0;
      EncodeStatusPayload(
          Status::ResourceExhausted(
              "connection limit reached (" +
              std::to_string(options_.max_connections) + ")"),
          &reject.payload);
      std::string wire;
      EncodeFrame(reject, &wire);
      (void)SendAll(fd, wire);
      ::close(fd);
      continue;
    }
    auto conn = std::make_shared<Connection>();
    conn->fd = fd;
    conns_open_.fetch_add(1, std::memory_order_release);
    {
      qv::MutexLock lock(conns_mu_);
      conn->id = next_conn_++;
      conns_[conn->id] = conn;
      readers_[conn->id] = std::thread([this, conn] { ReaderLoop(conn); });
    }
  }
}

void Server::ReapFinishedReaders() {
  std::vector<std::thread> joinable;
  {
    qv::MutexLock lock(conns_mu_);
    for (uint64_t id : finished_readers_) {
      auto it = readers_.find(id);
      if (it != readers_.end()) {
        joinable.push_back(std::move(it->second));
        readers_.erase(it);
      }
    }
    finished_readers_.clear();
  }
  // Join outside the lock; "finished" means the reader is past its last
  // shared state, join only waits out its return.
  for (std::thread& thread : joinable) thread.join();
}

void Server::ReaderLoop(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  std::vector<char> chunk(64 * 1024);
  bool poisoned = false;
  while (!poisoned) {
    ssize_t n = ::recv(conn->fd, chunk.data(), chunk.size(), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      break;  // peer closed, error, or Stop's shutdown
    }
    buffer.append(chunk.data(), static_cast<size_t>(n));
    size_t offset = 0;
    for (;;) {
      Frame frame;
      size_t consumed = 0;
      Result<FrameDecode> decoded = DecodeFrame(
          std::string_view(buffer).substr(offset), &frame, &consumed);
      if (!decoded.ok()) {
        // Corrupt framing poisons the stream — there is no resync point
        // in a length-prefixed protocol. Count it and drop the peer.
        protocol_errors_.fetch_add(1, std::memory_order_relaxed);
        poisoned = true;
        break;
      }
      if (*decoded == FrameDecode::kNeedMore) break;
      offset += consumed;
      frames_in_.fetch_add(1, std::memory_order_relaxed);
      HandleFrame(conn, std::move(frame), Clock::now());
    }
    buffer.erase(0, offset);
  }
  // Disconnect cleanup. closing first, then the cursor sweep: a
  // concurrent OpenCursor worker checks `closing` under cursor_mu, so it
  // either stored its cursor before the sweep (destroyed here) or
  // observes closing and never stores it.
  conn->closing.store(true, std::memory_order_release);
  CloseConnectionCursors(conn);
  {
    qv::MutexLock lock(conns_mu_);
    conns_.erase(conn->id);
    finished_readers_.push_back(conn->id);
  }
  conns_open_.fetch_sub(1, std::memory_order_release);
}

void Server::CloseConnectionCursors(const std::shared_ptr<Connection>& conn) {
  std::map<uint64_t, CursorEntry> doomed;
  {
    qv::MutexLock lock(conn->cursor_mu);
    doomed.swap(conn->cursors);
  }
  if (!doomed.empty()) {
    open_cursors_.fetch_sub(doomed.size(), std::memory_order_relaxed);
  }
}

void Server::HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame,
                         Clock::time_point arrival) {
  const Opcode opcode = frame.opcode;
  if ((frame.flags & kFlagError) != 0) {
    protocol_errors_.fetch_add(1, std::memory_order_relaxed);
    SendError(conn, opcode, frame.request_id,
              Status::InvalidArgument("error flag set on a request frame"));
    return;
  }
  // Stats and CloseCursor run inline on the reader thread: observability
  // and resource release must work even when the pool is saturated.
  if (opcode == Opcode::kStats || opcode == Opcode::kCloseCursor) {
    ExecuteRpc(conn, frame, arrival);
    return;
  }
  // Admission gate (CAS, not a lock: shedding must stay O(1) under the
  // very overload it handles). The pool's own queue is unbounded, so
  // this counter IS the bound.
  uint64_t queued = queued_.load(std::memory_order_relaxed);
  for (;;) {
    if (queued >= options_.admission_queue_limit) {
      shed_.fetch_add(1, std::memory_order_relaxed);
      op_shed_[static_cast<size_t>(opcode)].fetch_add(
          1, std::memory_order_relaxed);
      RecordLatency(opcode, arrival);
      SendError(conn, opcode, frame.request_id,
                Status::ResourceExhausted(
                    "admission queue full (limit " +
                    std::to_string(options_.admission_queue_limit) + ")"));
      return;
    }
    if (queued_.compare_exchange_weak(queued, queued + 1,
                                      std::memory_order_acq_rel)) {
      break;
    }
  }
  admitted_.fetch_add(1, std::memory_order_relaxed);
  pool_.Submit([this, conn, frame = std::move(frame), arrival] {
    queued_.fetch_sub(1, std::memory_order_acq_rel);
    inflight_.fetch_add(1, std::memory_order_acq_rel);
    ExecuteRpc(conn, frame, arrival);
    inflight_.fetch_sub(1, std::memory_order_acq_rel);
  });
}

void Server::ExecuteRpc(const std::shared_ptr<Connection>& conn,
                        const Frame& frame, Clock::time_point arrival) {
  RpcObs obs;
  Result<std::string> payload = RunOpcode(conn, frame, arrival, &obs);
  uint8_t flags = 0;
  if (payload.ok() && (frame.flags & kFlagTrace) != 0 &&
      !obs.trace.empty()) {
    // The trace crosses the wire only when the CLIENT asked (trace_all
    // alone keeps it server-side, for the slow-query log).
    std::string wrapped;
    EncodeTracedPayload(obs.trace, *payload, &wrapped);
    *payload = std::move(wrapped);
    flags = kFlagTrace;
  }
  // Record before writing: a client that reads this reply and then asks
  // for Stats must find its own request counted and logged.
  const uint64_t elapsed_us = RecordLatency(frame.opcode, arrival);
  obs::SlowQueryLog::Entry entry;
  entry.latency_us = elapsed_us;
  entry.request_id = frame.request_id;
  entry.opcode = OpcodeName(frame.opcode);
  entry.description = obs.description.empty() ? OpcodeName(frame.opcode)
                                              : std::move(obs.description);
  entry.trace = std::move(obs.trace);
  slow_log_.Record(std::move(entry));
  if (payload.ok()) {
    SendResponse(conn, frame.opcode, frame.request_id,
                 std::move(payload).value(), flags);
  } else {
    SendError(conn, frame.opcode, frame.request_id, payload.status());
  }
}

Result<std::string> Server::RunOpcode(const std::shared_ptr<Connection>& conn,
                                      const Frame& frame,
                                      Clock::time_point arrival, RpcObs* obs) {
  // Trace when the client asked or the server traces everything; the
  // trace id IS the wire request id, so client- and server-side views of
  // one request correlate by construction.
  const bool traced =
      (frame.flags & kFlagTrace) != 0 || options_.trace_all;
  // Turns a Search/OpenCursor request into a BatchQuery whose deadline
  // is the REMAINING budget: absolute from frame arrival, so queueing
  // time counts against it. Returns false when already expired.
  auto to_batch_query = [&](const SearchRpcRequest& req,
                            service::BatchQuery* query) -> bool {
    query->view = req.view;
    query->keywords = req.keywords;
    query->options.top_k = req.top_k;
    query->options.conjunctive = req.conjunctive;
    query->shard = req.shard;
    if (req.deadline_ms != 0) {
      const Clock::time_point deadline =
          arrival + std::chrono::milliseconds(req.deadline_ms);
      const Clock::time_point now = Clock::now();
      if (now >= deadline) return false;
      query->deadline = std::chrono::duration_cast<std::chrono::milliseconds>(
          deadline - now);
    }
    return true;
  };

  switch (frame.opcode) {
    case Opcode::kRegisterView: {
      QUICKVIEW_ASSIGN_OR_RETURN(RegisterViewRequest req,
                                 DecodeRegisterViewRequest(frame.payload));
      QUICKVIEW_RETURN_IF_ERROR(service_->RegisterView(req.name,
                                                       req.view_text));
      return std::string();
    }
    case Opcode::kSearch: {
      QUICKVIEW_ASSIGN_OR_RETURN(SearchRpcRequest req,
                                 DecodeSearchRpcRequest(frame.payload));
      obs->description = DescribeSearch("search", req);
      service::BatchQuery query;
      if (!to_batch_query(req, &query)) {
        deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
        op_deadline_rejected_[static_cast<size_t>(frame.opcode)].fetch_add(
            1, std::memory_order_relaxed);
        return Status::DeadlineExceeded("deadline expired before execution");
      }
      std::shared_ptr<obs::Trace> trace;
      if (traced) {
        trace = std::make_shared<obs::Trace>(frame.request_id);
        query.trace = trace;
      }
      Result<engine::SearchResponse> resp = service_->SearchOne(query);
      // SearchOne drained the cursor, so the trace is quiescent — its
      // tree is complete through materialization. Serialized even on
      // error: the slow-query log wants to explain failures too.
      if (trace != nullptr) obs->trace = trace->Serialize();
      if (!resp.ok()) return resp.status();
      std::string payload;
      Encode(*resp, &payload);
      return payload;
    }
    case Opcode::kOpenCursor: {
      QUICKVIEW_ASSIGN_OR_RETURN(SearchRpcRequest req,
                                 DecodeSearchRpcRequest(frame.payload));
      obs->description = DescribeSearch("open_cursor", req);
      service::BatchQuery query;
      if (!to_batch_query(req, &query)) {
        deadline_rejected_.fetch_add(1, std::memory_order_relaxed);
        op_deadline_rejected_[static_cast<size_t>(frame.opcode)].fetch_add(
            1, std::memory_order_relaxed);
        return Status::DeadlineExceeded("deadline expired before execution");
      }
      std::shared_ptr<obs::Trace> trace;
      if (traced) {
        trace = std::make_shared<obs::Trace>(frame.request_id);
        query.trace = trace;
      }
      Result<std::unique_ptr<engine::ResultCursor>> opened =
          service_->OpenSearch(query);
      if (trace != nullptr) obs->trace = trace->Serialize();
      if (!opened.ok()) return opened.status();
      std::unique_ptr<engine::ResultCursor> cursor = std::move(opened).value();
      OpenCursorResponse resp;
      resp.matching = cursor->stats().search.matching_results;
      resp.pending = cursor->pending();
      {
        qv::MutexLock lock(conn->cursor_mu);
        if (conn->closing.load(std::memory_order_acquire)) {
          // Disconnected while we built it; the sweep may already have
          // run, so never store past it.
          return Status::Cancelled("connection closed");
        }
        resp.cursor_id = conn->next_cursor++;
        // The trace stays with the cursor: FetchNext keeps growing the
        // materialize span, and each traced fetch re-serializes the
        // (bigger) tree.
        conn->cursors[resp.cursor_id] = CursorEntry{std::move(cursor), trace};
      }
      open_cursors_.fetch_add(1, std::memory_order_relaxed);
      std::string payload;
      Encode(resp, &payload);
      return payload;
    }
    case Opcode::kFetchNext: {
      QUICKVIEW_ASSIGN_OR_RETURN(FetchNextRequest req,
                                 DecodeFetchNextRequest(frame.payload));
      // Cursor ops on one connection serialize under cursor_mu — holding
      // it across the fetch is what lets disconnect destroy cursors
      // without racing an in-flight FetchNext (and is what makes the
      // cursor's trace quiescent when we serialize it below).
      qv::MutexLock lock(conn->cursor_mu);
      auto it = conn->cursors.find(req.cursor_id);
      if (it == conn->cursors.end()) {
        return Status::NotFound("unknown cursor id " +
                                std::to_string(req.cursor_id));
      }
      Result<std::vector<engine::SearchHit>> hits =
          it->second.cursor->FetchNext(req.count);
      if (!hits.ok()) {
        // A failed fetch leaves the cursor unspecified; retire it.
        conn->cursors.erase(it);
        open_cursors_.fetch_sub(1, std::memory_order_relaxed);
        return hits.status();
      }
      if (it->second.trace != nullptr) {
        obs->trace = it->second.trace->Serialize();
      }
      FetchNextResponse resp;
      resp.hits = std::move(hits).value();
      resp.done = it->second.cursor->Done();
      std::string payload;
      Encode(resp, &payload);
      return payload;
    }
    case Opcode::kCloseCursor: {
      QUICKVIEW_ASSIGN_OR_RETURN(CloseCursorRequest req,
                                 DecodeCloseCursorRequest(frame.payload));
      qv::MutexLock lock(conn->cursor_mu);
      if (conn->cursors.erase(req.cursor_id) == 0) {
        return Status::NotFound("unknown cursor id " +
                                std::to_string(req.cursor_id));
      }
      open_cursors_.fetch_sub(1, std::memory_order_relaxed);
      return std::string();
    }
    case Opcode::kInsert: {
      QUICKVIEW_ASSIGN_OR_RETURN(InsertRequest req,
                                 DecodeInsertRequest(frame.payload));
      QUICKVIEW_RETURN_IF_ERROR(
          service_->InsertDocument(req.name, req.xml_text));
      return std::string();
    }
    case Opcode::kRemove: {
      QUICKVIEW_ASSIGN_OR_RETURN(RemoveRequest req,
                                 DecodeRemoveRequest(frame.payload));
      QUICKVIEW_RETURN_IF_ERROR(service_->RemoveDocument(req.name));
      return std::string();
    }
    case Opcode::kStats: {
      if (!frame.payload.empty()) {
        return Status::ParseError("Stats request takes no payload");
      }
      return StatsText();
    }
  }
  return Status::Internal("unhandled opcode");  // unreachable: decode checks
}

void Server::SendFrame(const std::shared_ptr<Connection>& conn,
                       const Frame& frame) {
  if (conn->closing.load(std::memory_order_acquire)) return;
  std::string wire;
  EncodeFrame(frame, &wire);
  qv::MutexLock lock(conn->write_mu);
  if (SendAll(conn->fd, wire)) {
    frames_out_.fetch_add(1, std::memory_order_relaxed);
  } else {
    conn->closing.store(true, std::memory_order_release);
  }
}

void Server::SendResponse(const std::shared_ptr<Connection>& conn,
                          Opcode opcode, uint64_t request_id,
                          std::string payload, uint8_t flags) {
  Frame frame;
  frame.opcode = opcode;
  frame.flags = flags;
  frame.request_id = request_id;
  frame.payload = std::move(payload);
  SendFrame(conn, frame);
}

void Server::SendError(const std::shared_ptr<Connection>& conn, Opcode opcode,
                       uint64_t request_id, const Status& status) {
  Frame frame;
  frame.opcode = opcode;
  frame.flags = kFlagError;
  frame.request_id = request_id;
  EncodeStatusPayload(status, &frame.payload);
  SendFrame(conn, frame);
}

uint64_t Server::RecordLatency(Opcode opcode, Clock::time_point arrival) {
  const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
      Clock::now() - arrival);
  const uint64_t elapsed_us = static_cast<uint64_t>(elapsed.count());
  latency_[static_cast<size_t>(opcode)].Record(elapsed_us);
  return elapsed_us;
}

ServerSnapshot Server::SnapshotStats() const {
  ServerSnapshot out;
  out.admitted = admitted_.load(std::memory_order_relaxed);
  out.shed = shed_.load(std::memory_order_relaxed);
  out.deadline_rejected = deadline_rejected_.load(std::memory_order_relaxed);
  out.open_cursors = open_cursors_.load(std::memory_order_relaxed);
  out.connections_accepted = conns_accepted_.load(std::memory_order_relaxed);
  out.connections_rejected = conns_rejected_.load(std::memory_order_relaxed);
  out.frames_received = frames_in_.load(std::memory_order_relaxed);
  out.frames_sent = frames_out_.load(std::memory_order_relaxed);
  out.protocol_errors = protocol_errors_.load(std::memory_order_relaxed);
  for (size_t i = 0; i < kOpcodeSlots; ++i) {
    // One consistent point-in-time snapshot per histogram: count and
    // every quantile come from the same bucket state.
    const HistogramSnapshot snap = latency_[i].Snapshot();
    out.latency[i].count = snap.count;
    out.latency[i].p50_us = snap.ValueAtQuantile(0.50);
    out.latency[i].p90_us = snap.ValueAtQuantile(0.90);
    out.latency[i].p99_us = snap.ValueAtQuantile(0.99);
    out.latency[i].shed = op_shed_[i].load(std::memory_order_relaxed);
    out.latency[i].deadline_rejected =
        op_deadline_rejected_[i].load(std::memory_order_relaxed);
  }
  out.slow_queries = slow_log_.Snapshot();
  return out;
}

std::string Server::StatsText() const {
  return registry_.TextExposition() + slow_log_.TextExposition();
}

}  // namespace quickview::server
